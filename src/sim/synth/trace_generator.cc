#include "sim/synth/trace_generator.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace swcc
{

TraceGenerator::TraceGenerator(const SyntheticWorkloadConfig &config)
    : config_(config), rng_(config.seed)
{
    config_.validate();
    codeExponent_ = -1.0 / config_.codeParetoAlpha;
    privateExponent_ = -1.0 / config_.privateParetoAlpha;
    nextMigrationAt_ = config_.migrationIntervalInstrs;
    cpus_.resize(config_.numCpus);
    for (unsigned i = 0; i < config_.numCpus; ++i) {
        CpuState &cpu = cpus_[i];
        cpu.id = static_cast<CpuId>(i);
        cpu.processId = cpu.id;
        initSegment(cpu.code, config_.codeBytes / config_.blockBytes);
        initSegment(cpu.data, config_.privateBytes / config_.blockBytes);
        cpu.curCodeBlock = config_.codeBase(cpu.processId) +
            static_cast<Addr>(nextBlock(cpu.code, codeExponent_)) *
            config_.blockBytes;
        startNonCritical(cpu);
        // Desynchronise the phases across processors.
        if (cpu.phaseInstrsLeft != std::numeric_limits<std::size_t>::max()) {
            cpu.phaseInstrsLeft = rng_.below(cpu.phaseInstrsLeft + 1);
        }
    }
}

void
TraceGenerator::initSegment(SegmentStack &seg, std::size_t num_blocks)
{
    seg.order.resize(num_blocks);
    for (std::size_t i = 0; i < num_blocks; ++i) {
        seg.order[i] = static_cast<std::uint32_t>(i);
    }
    // Fisher-Yates shuffle: hot blocks land on scattered cache sets.
    for (std::size_t i = num_blocks; i > 1; --i) {
        const std::size_t j = rng_.below(i);
        std::swap(seg.order[i - 1], seg.order[j]);
    }
    seg.allocated = 0;
    seg.stack.clear();
    seg.stack.reserve(num_blocks);
}

std::uint32_t
TraceGenerator::nextBlock(SegmentStack &seg, double exponent)
{
    // Pareto stack distance: P(d > x) = x^-alpha, support {1, 2, ...}.
    const double u = rng_.uniform();
    const double draw = std::pow(1.0 - u, exponent);
    const auto distance = draw >= 1e18
        ? std::numeric_limits<std::uint64_t>::max()
        : static_cast<std::uint64_t>(draw);

    if (distance <= seg.stack.size()) {
        // Reuse the block at that LRU depth and move it to the front:
        // the pos entries above it shift down one slot, so the move
        // costs the reuse depth, not the stack size.
        const std::size_t pos = static_cast<std::size_t>(distance) - 1;
        std::uint32_t *const front = seg.stack.data();
        const std::uint32_t block = front[pos];
        std::move_backward(front, front + pos, front + pos + 1);
        front[0] = block;
        return block;
    }
    if (seg.allocated < seg.order.size()) {
        // First touch of a new block (compulsory miss downstream).
        const std::uint32_t block = seg.order[seg.allocated++];
        seg.stack.insert(seg.stack.begin(), block);
        return block;
    }
    // Segment exhausted: treat as a reference beyond every cached
    // block — reuse the coldest one.
    const std::uint32_t block = seg.stack.back();
    seg.stack.pop_back();
    seg.stack.insert(seg.stack.begin(), block);
    return block;
}

double
TraceGenerator::nonCriticalMeanInstructions() const
{
    if (config_.shd <= 0.0) {
        return 0.0; // Unused: critical sections never start.
    }
    const double shared_per_cycle = config_.csDataRefs;
    const double private_per_cycle =
        shared_per_cycle * (1.0 - config_.shd) / config_.shd;
    if (config_.ls <= 0.0) {
        return private_per_cycle; // Degenerate; avoids divide by zero.
    }
    return private_per_cycle / config_.ls;
}

void
TraceGenerator::startNonCritical(CpuState &cpu)
{
    cpu.phase = Phase::NonCritical;
    const double mean = nonCriticalMeanInstructions();
    if (config_.shd <= 0.0) {
        cpu.phaseInstrsLeft = std::numeric_limits<std::size_t>::max();
        return;
    }
    if (mean <= 0.0) {
        cpu.phaseInstrsLeft = 0;
        return;
    }
    // Geometric with the requested mean keeps phases memoryless and
    // desynchronised across processors.
    cpu.phaseInstrsLeft = rng_.geometric(std::min(1.0, 1.0 / mean));
}

void
TraceGenerator::startCritical(CpuState &cpu)
{
    cpu.phase = Phase::Critical;
    cpu.csRefsLeft = config_.csDataRefs;
    cpu.touched.clear();

    const std::size_t shared_blocks =
        config_.sharedBytes / config_.blockBytes;
    const std::size_t region_area = shared_blocks - config_.numLocks;
    const std::size_t num_regions =
        std::max<std::size_t>(1, region_area / config_.regionBlocks);
    const std::uint64_t region =
        rng_.zipf(num_regions, config_.regionZipf);
    cpu.regionBase = SyntheticWorkloadConfig::kSharedBase +
        (static_cast<Addr>(config_.numLocks) +
         region * config_.regionBlocks) * config_.blockBytes;

    cpu.csReadOnly = rng_.chance(config_.readOnlyCsFraction);

    cpu.lockBlock = 0;
    if (!cpu.csReadOnly && config_.numLocks > 0 &&
        rng_.chance(config_.lockFraction)) {
        cpu.lockBlock = SyntheticWorkloadConfig::kSharedBase +
            rng_.below(config_.numLocks) * config_.blockBytes;
        // Acquire: a read-modify-write of the lock word.
        emitInstruction(cpu);
        cpu.pending.push_back({cpu.lockBlock, cpu.id, RefType::Load});
        emitInstruction(cpu);
        cpu.pending.push_back({cpu.lockBlock, cpu.id, RefType::Store});
        if (config_.emitFlushes) {
            cpu.touched.insert(cpu.lockBlock);
        }
    }
}

void
TraceGenerator::endCritical(CpuState &cpu)
{
    if (cpu.lockBlock != 0) {
        // Release: a store of the lock word.
        emitInstruction(cpu);
        cpu.pending.push_back({cpu.lockBlock, cpu.id, RefType::Store});
    }
    if (config_.emitFlushes) {
        // One flush instruction per touched shared block; flush
        // instructions are fetched but are pure coherence overhead, so
        // they do not count as retired work.
        for (Addr block : cpu.touched) {
            emitInstruction(cpu, /*counts_as_work=*/false);
            cpu.pending.push_back({block, cpu.id, RefType::Flush});
        }
    }
    cpu.touched.clear();
    cpu.lockBlock = 0;
    startNonCritical(cpu);
}

void
TraceGenerator::emitInstruction(CpuState &cpu, bool counts_as_work)
{
    cpu.pending.push_back(
        {cpu.curCodeBlock + 4 * cpu.codeWord, cpu.id, RefType::IFetch});
    if (counts_as_work) {
        ++cpu.retired;
        ++totalRetired_;
    }

    const unsigned words =
        static_cast<unsigned>(config_.blockBytes / 4);
    if (++cpu.codeWord >= words) {
        cpu.codeWord = 0;
        cpu.curCodeBlock = config_.codeBase(cpu.processId) +
            static_cast<Addr>(nextBlock(cpu.code, codeExponent_)) *
            config_.blockBytes;
    }
}

void
TraceGenerator::emitPrivateRef(CpuState &cpu)
{
    const std::uint32_t block = nextBlock(cpu.data, privateExponent_);
    const Addr addr = config_.privateBase(cpu.processId) +
        static_cast<Addr>(block) * config_.blockBytes +
        4 * rng_.below(config_.blockBytes / 4);
    const RefType type = rng_.chance(config_.wrPrivate)
        ? RefType::Store : RefType::Load;
    cpu.pending.push_back({addr, cpu.id, type});
}

void
TraceGenerator::emitSharedRef(CpuState &cpu)
{
    const Addr block = cpu.regionBase +
        rng_.below(config_.regionBlocks) * config_.blockBytes;
    const Addr addr = block + 4 * rng_.below(config_.blockBytes / 4);
    const RefType type = !cpu.csReadOnly && rng_.chance(config_.wrShared)
        ? RefType::Store : RefType::Load;
    cpu.pending.push_back({addr, cpu.id, type});
    if (config_.emitFlushes) {
        cpu.touched.insert(block);
    }
}

void
TraceGenerator::refill(CpuState &cpu)
{
    cpu.pending.clear();
    cpu.pendingNext = 0;

    switch (cpu.phase) {
      case Phase::NonCritical:
        if (cpu.phaseInstrsLeft == 0) {
            startCritical(cpu);
            if (!cpu.pending.empty()) {
                return; // Lock acquire already queued instructions.
            }
            refill(cpu);
            return;
        }
        --cpu.phaseInstrsLeft;
        emitInstruction(cpu);
        if (rng_.chance(config_.ls)) {
            emitPrivateRef(cpu);
        }
        return;
      case Phase::Critical:
        emitInstruction(cpu);
        if (rng_.chance(config_.ls)) {
            emitSharedRef(cpu);
            if (cpu.csRefsLeft > 0) {
                --cpu.csRefsLeft;
            }
            if (cpu.csRefsLeft == 0) {
                endCritical(cpu);
            }
        }
        return;
    }
}

void
TraceGenerator::migrate()
{
    if (cpus_.size() < 2) {
        return;
    }
    const std::size_t a = rng_.below(cpus_.size());
    std::size_t b = rng_.below(cpus_.size() - 1);
    if (b >= a) {
        ++b;
    }
    CpuState &first = cpus_[a];
    CpuState &second = cpus_[b];

    std::swap(first.processId, second.processId);
    // Migrated processes arrive with cold locality: restart the stack
    // walks (the shuffled allocation orders stay with the processor,
    // which is fine — any order over the segment is valid).
    for (CpuState *cpu : {&first, &second}) {
        cpu->code.stack.clear();
        cpu->code.allocated = 0;
        cpu->data.stack.clear();
        cpu->data.allocated = 0;
        cpu->codeWord = 0;
        cpu->curCodeBlock = config_.codeBase(cpu->processId) +
            static_cast<Addr>(nextBlock(cpu->code, codeExponent_)) *
            config_.blockBytes;
    }
}

TraceBuffer
TraceGenerator::generate()
{
    TraceBuffer trace;
    generateInto(trace);
    return trace;
}

void
TraceGenerator::generateInto(TraceBuffer &trace)
{
    trace.clear();
    trace.reserve(static_cast<std::size_t>(
        static_cast<double>(config_.instructionsPerCpu) *
        config_.numCpus * (1.0 + config_.ls) * 1.1));

    std::vector<std::size_t> live;
    live.reserve(cpus_.size());
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
        live.push_back(i);
    }

    while (!live.empty()) {
        const std::size_t pick = rng_.below(live.size());
        CpuState &cpu = cpus_[live[pick]];

        if (cpu.pendingNext >= cpu.pending.size()) {
            if (cpu.retired >= config_.instructionsPerCpu) {
                // Retired its quota and drained: retire the processor.
                live[pick] = live.back();
                live.pop_back();
                continue;
            }
            if (config_.migrationIntervalInstrs > 0 &&
                totalRetired_ >= nextMigrationAt_) {
                migrate();
                nextMigrationAt_ =
                    totalRetired_ + config_.migrationIntervalInstrs;
            }
            refill(cpu);
        }
        trace.append(cpu.pending[cpu.pendingNext++]);
    }
}

TraceBuffer
generateTrace(const SyntheticWorkloadConfig &config)
{
    TraceGenerator generator(config);
    return generator.generate();
}

void
generateTrace(const SyntheticWorkloadConfig &config, TraceBuffer &out)
{
    TraceGenerator generator(config);
    generator.generateInto(out);
}

} // namespace swcc
