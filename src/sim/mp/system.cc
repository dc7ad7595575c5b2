#include "sim/mp/system.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

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
    if (trace.numCpus() > processors_.size()) {
        throw std::invalid_argument(
            "trace uses more processors than the system has");
    }

    // Distribute the interleaved trace into program-order streams,
    // counting first so every stream is allocated exactly once.
    std::vector<std::size_t> stream_sizes(processors_.size(), 0);
    for (const TraceEvent &event : trace) {
        ++stream_sizes[event.cpu];
    }
    std::vector<std::vector<TraceEvent>> streams(processors_.size());
    for (std::size_t i = 0; i < streams.size(); ++i) {
        streams[i].reserve(stream_sizes[i]);
    }
    for (const TraceEvent &event : trace) {
        streams[event.cpu].push_back(event);
    }
    for (std::size_t i = 0; i < processors_.size(); ++i) {
        processors_[i].setEvents(std::move(streams[i]));
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
    stats.cpus = static_cast<CpuId>(processors_.size());

    // Global-time event loop: always advance the processor with the
    // smallest local clock, lowest id on ties. A tournament tree over
    // the processor clocks replays one leaf-to-root path (O(log P)
    // compares, branch-light) per event; the binary heap it replaces
    // profiled as the hottest function in the whole simulator, and
    // unlike a heap the tree re-reads clocks on every compare, so
    // clocks bumped by stolen cycles need no stale-entry repair —
    // just a refresh of the victim's path. Retired processors park at
    // +inf; ties resolve leftward, i.e. to the lowest processor id,
    // exactly as the heap's comparator ordered them.
    constexpr double kIdle = std::numeric_limits<double>::infinity();
    const std::size_t leaves = std::bit_ceil(processors_.size());
    std::vector<double> clocks(leaves, kIdle);
    std::vector<std::uint32_t> winner(2 * leaves);
    for (std::size_t i = 0; i < leaves; ++i) {
        winner[leaves + i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = 0; i < processors_.size(); ++i) {
        if (!processors_[i].done()) {
            clocks[i] = processors_[i].readyAt;
        }
    }
    for (std::size_t n = leaves - 1; n >= 1; --n) {
        winner[n] = clocks[winner[2 * n]] <= clocks[winner[2 * n + 1]]
            ? winner[2 * n] : winner[2 * n + 1];
    }
    const auto refresh = [&](std::size_t i) {
        const TraceProcessor &proc = processors_[i];
        clocks[i] = proc.done() ? kIdle : proc.readyAt;
        for (std::size_t n = (leaves + i) >> 1; n >= 1; n >>= 1) {
            const std::uint32_t left = winner[2 * n];
            const std::uint32_t right = winner[2 * n + 1];
            winner[n] = clocks[left] <= clocks[right] ? left : right;
        }
    };

    while (clocks[winner[1]] != kIdle) {
        const std::uint32_t cpu = winner[1];
        step(processors_[cpu], stats);
        refresh(cpu);
        for (CpuId victim : result_.steals) {
            refresh(victim);
        }
    }

    stats.perCpu.reserve(processors_.size());
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
