#include "sim/mp/system.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/obs/metrics.hh"
#include "sim/cache/base_protocol.hh"
#include "sim/cache/dragon_protocol.hh"
#include "sim/cache/hybrid_protocol.hh"
#include "sim/cache/mesi_family_protocol.hh"
#include "sim/cache/nocache_protocol.hh"
#include "sim/cache/swflush_protocol.hh"

namespace swcc
{

namespace
{

std::unique_ptr<CoherenceProtocol>
makeProtocol(Scheme scheme, const CacheConfig &cache_config,
             CpuId num_cpus, SharedClassifier shared)
{
    switch (scheme) {
      case Scheme::Base:
        return std::make_unique<BaseProtocol>(cache_config, num_cpus);
      case Scheme::NoCache:
        return std::make_unique<NoCacheProtocol>(cache_config, num_cpus,
                                                 std::move(shared));
      case Scheme::SoftwareFlush:
        return std::make_unique<SwFlushProtocol>(cache_config, num_cpus);
      case Scheme::Dragon:
        return std::make_unique<DragonProtocol>(cache_config, num_cpus,
                                                std::move(shared));
      case Scheme::Mesi:
        return std::make_unique<MesiFamilyProtocol>(
            MesiVariant::Mesi, cache_config, num_cpus);
      case Scheme::Mesif:
        return std::make_unique<MesiFamilyProtocol>(
            MesiVariant::Mesif, cache_config, num_cpus);
      case Scheme::Moesi:
        return std::make_unique<MesiFamilyProtocol>(
            MesiVariant::Moesi, cache_config, num_cpus);
      case Scheme::Hybrid:
        return std::make_unique<HybridProtocol>(cache_config, num_cpus);
    }
    throw std::invalid_argument("unknown Scheme");
}

/**
 * The processors waiting to run, filed by the whole cycle their clock
 * reads: a ring of one-cycle buckets, each a bitset over processor
 * ids, and a bitmap of the buckets that hold anyone. The earliest
 * waiting processor is the lowest id in the first occupied bucket at
 * or after base_, the cycle last taken; every waiting cycle lies in
 * [base_, base_ + ring size), and a cycle beyond that doubles the
 * ring.
 */
class Calendar
{
  public:
    /** A waiting processor and the cycle it waits at. */
    struct Entry
    {
        std::uint64_t cycle;
        std::uint32_t cpu;
    };

    explicit Calendar(std::size_t cpus) : words_((cpus + 63) / 64)
    {
        resize(kInitialCycles);
    }

    bool empty() const { return waiting_ == 0; }

    /** Files @p cpu at @p cycle, not below the cycle last taken. */
    void
    insert(std::uint32_t cpu, std::uint64_t cycle)
    {
        if (cycle - base_ > mask_) {
            grow(cycle);
        }
        const std::uint64_t slot = cycle & mask_;
        buckets_[slot * words_ + cpu / 64] |= std::uint64_t{1} << (cpu % 64);
        occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
        ++waiting_;
    }

    /** Moves @p cpu, waiting at @p cycle, one cycle later. */
    void
    delay(std::uint32_t cpu, std::uint64_t cycle)
    {
        erase(cpu, cycle);
        insert(cpu, cycle + 1);
    }

    /** The earliest waiting processor, lowest id on ties. @pre !empty() */
    Entry
    peek() const
    {
        const std::uint64_t start = base_ & mask_;
        std::size_t word = start / 64;
        std::uint64_t bits =
            occupied_[word] & (~std::uint64_t{0} << (start % 64));
        while (bits == 0) {
            word = (word + 1) & (occupied_.size() - 1);
            bits = occupied_[word];
        }
        const std::uint64_t slot =
            word * 64 + static_cast<unsigned>(std::countr_zero(bits));
        const std::uint64_t *bucket = &buckets_[slot * words_];
        std::size_t w = 0;
        while (bucket[w] == 0) {
            ++w;
        }
        return {base_ + ((slot - start) & mask_),
                static_cast<std::uint32_t>(
                    w * 64 + static_cast<unsigned>(
                                 std::countr_zero(bucket[w])))};
    }

    /** Removes @p earliest, which peek() returned, to run it. */
    void
    take(Entry earliest)
    {
        erase(earliest.cpu, earliest.cycle);
        base_ = earliest.cycle;
    }

  private:
    /** Buckets before the first doubling; a multiple of 64. */
    static constexpr std::uint64_t kInitialCycles = 256;

    void
    erase(std::uint32_t cpu, std::uint64_t cycle)
    {
        const std::uint64_t slot = cycle & mask_;
        std::uint64_t *bucket = &buckets_[slot * words_];
        bucket[cpu / 64] &= ~(std::uint64_t{1} << (cpu % 64));
        if (bucket[cpu / 64] == 0 &&
            std::all_of(bucket, bucket + words_,
                        [](std::uint64_t w) { return w == 0; })) {
            occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
        }
        --waiting_;
    }

    void
    resize(std::uint64_t cycles)
    {
        mask_ = cycles - 1;
        buckets_.assign(cycles * words_, 0);
        occupied_.assign(cycles / 64, 0);
        waiting_ = 0;
    }

    /** Doubles the ring until @p cycle fits, refiling everyone. */
    void
    grow(std::uint64_t cycle)
    {
        const std::uint64_t base = base_;
        std::vector<Entry> entries;
        entries.reserve(waiting_);
        while (!empty()) {
            entries.push_back(peek());
            take(entries.back());
        }
        base_ = base;
        std::uint64_t cycles = mask_ + 1;
        while (cycle - base_ >= cycles) {
            cycles *= 2;
        }
        resize(cycles);
        for (const Entry &entry : entries) {
            insert(entry.cpu, entry.cycle);
        }
    }

    std::size_t words_;
    std::uint64_t mask_ = 0;
    std::uint64_t base_ = 0;
    std::size_t waiting_ = 0;
    std::vector<std::uint64_t> buckets_;
    std::vector<std::uint64_t> occupied_;
};

/** A clock as the whole cycle it reads. */
std::uint64_t
cycleOf(Cycles clock)
{
    return static_cast<std::uint64_t>(clock);
}

} // namespace

MultiprocessorSystem::MultiprocessorSystem(Scheme scheme,
                                           const CacheConfig &cache_config,
                                           CpuId num_cpus,
                                           SharedClassifier shared,
                                           const BusCostModel &costs)
    : MultiprocessorSystem(makeProtocol(scheme, cache_config, num_cpus,
                                        std::move(shared)),
                           costs)
{
}

MultiprocessorSystem::MultiprocessorSystem(
    std::unique_ptr<CoherenceProtocol> protocol,
    const BusCostModel &costs)
    : costs_(costs), protocol_(std::move(protocol))
{
    if (!protocol_) {
        throw std::invalid_argument("need a protocol");
    }
    for (const Operation op : kAllOperations) {
        const OpCost cost = costs_.cost(op);
        for (const Cycles part : {cost.cpu, cost.channel}) {
            if (!std::isfinite(part) || std::floor(part) != part) {
                throw std::invalid_argument(
                    "bus cost of " + std::string(operationName(op)) +
                    " is not a whole number of cycles");
            }
        }
    }
    const CpuId num_cpus = protocol_->numCpus();
    processors_.reserve(num_cpus);
    for (CpuId i = 0; i < num_cpus; ++i) {
        processors_.emplace_back(i);
    }
    result_.steals.reserve(num_cpus);
}

void
MultiprocessorSystem::step(TraceProcessor &proc, SimStats &stats)
{
    const TraceEvent &event = proc.current();
    Cycles now = proc.readyAt;

    protocol_->access(event.cpu, event.type, event.addr, result_);

    switch (event.type) {
      case RefType::IFetch:
        ++proc.stats.instructions;
        // A fetched flush instruction's execution cost is the flush
        // operation itself, charged when the flush event executes.
        if (!proc.currentFetchesFlush()) {
            now += 1.0;
        }
        break;
      case RefType::Load:
      case RefType::Store:
        ++proc.stats.dataRefs;
        break;
      case RefType::Flush:
        ++proc.stats.flushes;
        break;
    }

    for (std::uint8_t i = 0; i < result_.numOps; ++i) {
        const Operation op = result_.ops[i];
        const OpCost cost = costs_.cost(op);
        ++stats.opCounts[operationIndex(op)];

        if (isMiss(op)) {
            if (event.type == RefType::IFetch) {
                ++stats.instrMisses;
            } else {
                ++stats.dataMisses;
            }
            if (isDirtyMiss(op)) {
                ++stats.dirtyMisses;
            }
        }

        if (cost.channel > 0.0) {
            // Local miss handling precedes the bus transaction.
            now += cost.cpu - cost.channel;
            const Bus::Grant grant = bus_.acquire(now, cost.channel);
            proc.stats.busWaiting += grant.waited;
            now = grant.start + cost.channel;
        } else {
            now += cost.cpu;
        }
    }

    for (CpuId victim : result_.steals) {
        TraceProcessor &victim_proc = processors_[victim];
        victim_proc.stealCycle();
        if (victim_proc.done()) {
            // The victim has retired its last event, so no further
            // step() will fold the bump into its finish time; record
            // it here or the stolen cycle never reaches the makespan.
            victim_proc.stats.finishTime = victim_proc.readyAt;
        }
        if (trc_ != nullptr) {
            trc_->recordInstant(stealName_, simPid_,
                                static_cast<std::int32_t>(victim),
                                victim_proc.readyAt);
        }
    }

    // One branch per retire when tracing is off; purely observational
    // when on. Span start is the processor's clock at dispatch, so
    // each CPU track shows retire latency including bus waits.
    if (trc_ != nullptr) {
        const Cycles start = proc.readyAt;
        trc_->recordComplete(
            retireNames_[static_cast<std::size_t>(event.type)],
            simPid_, static_cast<std::int32_t>(event.cpu), start,
            now - start);
        if ((++retired_ & 4095) == 0) {
            const auto counterTid =
                static_cast<std::int32_t>(processors_.size()) + 1;
            trc_->recordCounter(eventsCounterName_, simPid_,
                                counterTid, start,
                                static_cast<double>(retired_));
            trc_->recordCounter(busBusyCounterName_, simPid_,
                                counterTid, start,
                                bus_.busyCycles());
        }
    }

    proc.readyAt = now;
    proc.stats.finishTime = now;
    proc.advance();

    if (invariantInterval_ > 0 &&
        ++eventCount_ % invariantInterval_ == 0) {
        checkCoherenceInvariants(*protocol_);
    }
}

void
MultiprocessorSystem::beginRunTrace()
{
    obs::TraceRecorder &trc = obs::tracer();
    trc_ = &trc;
    simPid_ = trc.nextSimPid();
    const auto cpus = static_cast<std::int32_t>(processors_.size());
    trc.setProcessName(simPid_,
                       "sim:" + std::string(protocol_->name()) + " " +
                           std::to_string(cpus) +
                           "p (ts in cycles)");
    for (std::int32_t cpu = 0; cpu < cpus; ++cpu) {
        trc.setThreadName(simPid_, cpu,
                          "cpu " + std::to_string(cpu));
    }
    trc.setThreadName(simPid_, cpus, "bus");
    trc.setThreadName(simPid_, cpus + 1, "counters");
    retireNames_ = {trc.intern("retire.ifetch"),
                    trc.intern("retire.load"),
                    trc.intern("retire.store"),
                    trc.intern("retire.flush")};
    stealName_ = trc.intern("snoop.steal");
    eventsCounterName_ = trc.intern("sim.events_retired");
    busBusyCounterName_ = trc.intern("sim.bus_busy_cycles");
    bus_.setObserver(&trc, simPid_, cpus);
    retired_ = 0;
}

SimStats
MultiprocessorSystem::run(const TraceBuffer &trace)
{
    const std::size_t cpus = processors_.size();
    if (trace.numCpus() > cpus) {
        throw std::invalid_argument(
            "trace uses more processors than the system has");
    }
    if (trace.size() > std::numeric_limits<std::uint32_t>::max()) {
        throw std::invalid_argument(
            "trace of " + std::to_string(trace.size()) +
            " events is too long to simulate (at most " +
            std::to_string(std::numeric_limits<std::uint32_t>::max()) +
            ")");
    }

    // Program order without copying an event: the trace's positions
    // grouped by processor, counted first so each group's start is
    // known, then scattered in trace order. Processor i replays
    // positions [start[i], start[i + 1]).
    std::vector<std::uint32_t> start(cpus + 1, 0);
    for (const TraceEvent &event : trace) {
        ++start[event.cpu + 1];
    }
    for (std::size_t i = 0; i < cpus; ++i) {
        start[i + 1] += start[i];
    }
    std::vector<std::uint32_t> positions(trace.size());
    {
        std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
        for (std::uint32_t i = 0; i < positions.size(); ++i) {
            positions[fill[trace[i].cpu]++] = i;
        }
    }
    for (std::size_t i = 0; i < cpus; ++i) {
        processors_[i].setEvents(
            trace.events().data(),
            std::span<const std::uint32_t>(positions).subspan(
                start[i], start[i + 1] - start[i]));
        processors_[i].readyAt = 0.0;
        processors_[i].stats = CpuStats{};
    }
    bus_.reset();

    if (obs::tracer().enabled()) {
        beginRunTrace();
    } else {
        trc_ = nullptr;
        bus_.setObserver(nullptr, 0, 0);
    }

    SimStats stats;
    stats.scheme = protocol_->scheme();
    stats.protocolName = std::string(protocol_->name());
    stats.cpus = static_cast<CpuId>(cpus);

    // Global-time event loop: always advance the processor with the
    // smallest local clock, lowest id on ties. Every cost is a whole
    // number of cycles, so every clock is one too, and the waiting
    // processors sit in a calendar of one-cycle buckets. The one
    // taken keeps stepping while it is still the earliest (clock
    // below its rival's, or equal with the lower id), so a lone
    // processor and a run of zero-cost data hits touch no bucket. A
    // Dragon steal moves its waiting victim one bucket later; a
    // retired processor leaves the calendar.
    Calendar waiting(cpus);
    for (std::uint32_t i = 0; i < cpus; ++i) {
        if (!processors_[i].done()) {
            waiting.insert(i, 0);
        }
    }
    constexpr Cycles kNever = std::numeric_limits<Cycles>::infinity();
    Calendar::Entry rival{0, 0};
    Cycles rivalAt = kNever;
    const auto findRival = [&] {
        if (waiting.empty()) {
            rivalAt = kNever;
        } else {
            rival = waiting.peek();
            rivalAt = static_cast<Cycles>(rival.cycle);
        }
    };
    findRival();
    while (rivalAt != kNever) {
        // The earliest waiting processor runs; a processor filed back
        // is never earlier than the next rival, so that rival runs next.
        waiting.take(rival);
        const std::uint32_t cpu = rival.cpu;
        TraceProcessor &proc = processors_[cpu];
        findRival();
        for (;;) {
            step(proc, stats);
            if (!result_.steals.empty()) {
                for (CpuId victim : result_.steals) {
                    const TraceProcessor &robbed = processors_[victim];
                    if (!robbed.done()) {
                        waiting.delay(victim, cycleOf(robbed.readyAt) - 1);
                    }
                }
                findRival();
            }
            if (proc.done()) {
                break;
            }
            if (proc.readyAt < rivalAt ||
                (proc.readyAt == rivalAt && cpu < rival.cpu)) {
                continue;
            }
            waiting.insert(cpu, cycleOf(proc.readyAt));
            break;
        }
    }

    stats.perCpu.reserve(cpus);
    for (const TraceProcessor &proc : processors_) {
        stats.perCpu.push_back(proc.stats);
        stats.makespan = std::max(stats.makespan, proc.stats.finishTime);
    }
    stats.busBusyCycles = bus_.busyCycles();
    stats.busTransactions = bus_.transactions();

    {
        // Once per run, off the event loop: aggregate counters only.
        static obs::Counter &runs =
            obs::metrics().counter("sim.runs");
        static obs::Counter &events =
            obs::metrics().counter("sim.events");
        static obs::Counter &xacts =
            obs::metrics().counter("sim.bus.transactions");
        runs.add(1);
        events.add(trace.size());
        xacts.add(stats.busTransactions);
    }
    return stats;
}

SimStats
simulateTrace(Scheme scheme, const TraceBuffer &trace,
              const CacheConfig &cache_config,
              const SharedClassifier &shared)
{
    MultiprocessorSystem system(scheme, cache_config,
                                std::max<CpuId>(1, trace.numCpus()),
                                shared);
    return system.run(trace);
}

} // namespace swcc
