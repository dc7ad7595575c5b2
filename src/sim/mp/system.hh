/**
 * @file
 * Whole-system trace-driven multiprocessor simulator.
 */

#ifndef SWCC_SIM_MP_SYSTEM_HH
#define SWCC_SIM_MP_SYSTEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/cost_model.hh"
#include "core/obs/trace.hh"
#include "core/types.hh"
#include "sim/bus/bus.hh"
#include "sim/cache/coherence.hh"
#include "sim/mp/processor.hh"
#include "sim/mp/sim_stats.hh"
#include "sim/trace/trace_buffer.hh"
#include "sim/trace/trace_stats.hh"

namespace swcc
{

/**
 * The simulator's one snoop walk: each snoop probes every other cache
 * at the block's set, in ascending processor order. It has one value
 * so that callers naming it keep compiling; the benchmark harness
 * selects it before its statistics checks. It goes when they no
 * longer name it.
 */
enum class SnoopPath : std::uint8_t
{
    ReferenceScan,
};

/**
 * The trace-driven multiprocessor cache and bus simulator of the
 * paper's validation section.
 *
 * Per-processor traces replay against private caches kept coherent by
 * the selected protocol; cache activity is priced with the Table 1
 * system model and serialised through a FCFS bus with deterministic
 * service times. Events are processed in global-time order (the
 * processor with the smallest local clock goes next, the lowest id on
 * ties), which both orders bus grants fairly and lets processor
 * timing — not the traced machine's timing — determine the
 * interleaving, as in the paper.
 */
class MultiprocessorSystem
{
  public:
    /**
     * @param scheme Coherence scheme to simulate.
     * @param cache_config Geometry of each private cache.
     * @param num_cpus Number of processors.
     * @param shared Shared-region classifier: required by No-Cache,
     *        used by Dragon for parameter measurement, ignored by the
     *        others.
     * @param costs Bus system model (defaults to paper Table 1).
     * @throws std::invalid_argument if a cost in @p costs is not a
     *         whole number of cycles.
     */
    MultiprocessorSystem(Scheme scheme, const CacheConfig &cache_config,
                         CpuId num_cpus,
                         SharedClassifier shared = nullptr,
                         const BusCostModel &costs = BusCostModel());

    /**
     * Builds a system around a caller-supplied protocol, e.g. one
     * whose measurements() the caller reads after run(). Statistics
     * carry the protocol's scheme() and name().
     *
     * @throws std::invalid_argument if a cost in @p costs is not a
     *         whole number of cycles: Table 1 prices every operation
     *         in whole cycles, and the event loop schedules by them.
     */
    MultiprocessorSystem(std::unique_ptr<CoherenceProtocol> protocol,
                         const BusCostModel &costs = BusCostModel());

    /**
     * Replays @p trace to completion and returns the statistics.
     *
     * May be called once per system (caches stay warm otherwise);
     * construct a fresh system for an independent run.
     *
     * The processors read @p trace in place, each through its slice
     * of one 4-byte index of trace positions built per run.
     *
     * @throws std::invalid_argument if the trace uses more processors
     *         than the system has, or holds more events than a 4-byte
     *         position can index.
     */
    SimStats run(const TraceBuffer &trace);

    /** The protocol, for measurements and invariant checks. */
    const CoherenceProtocol &protocol() const { return *protocol_; }

    /**
     * Does nothing: SnoopPath::ReferenceScan is the only snoop walk,
     * so a run's statistics are the same with or without this call.
     */
    void setSnoopPath(SnoopPath) {}

    /**
     * Makes run() verify the cross-cache coherence invariants every
     * @p events references (0 disables; intended for tests).
     */
    void
    setInvariantCheckInterval(std::uint64_t events)
    {
        invariantInterval_ = events;
    }

  private:
    /** Executes one trace reference on @p proc. */
    void step(TraceProcessor &proc, SimStats &stats);

    /** Opens this run's simulated-time trace process (tracing on). */
    void beginRunTrace();

    BusCostModel costs_;
    std::unique_ptr<CoherenceProtocol> protocol_;
    std::vector<TraceProcessor> processors_;
    Bus bus_;
    AccessResult result_;
    std::uint64_t invariantInterval_ = 0;
    std::uint64_t eventCount_ = 0;

    // Tracing state for the current run. trc_ stays null unless the
    // recorder is enabled when run() starts, so the per-retire cost
    // of disabled tracing is one branch on a null pointer; none of
    // this ever feeds back into simulation timing or statistics.
    obs::TraceRecorder *trc_ = nullptr;
    std::int32_t simPid_ = 0;
    /** Retire-span names indexed by RefType. */
    std::array<std::uint32_t, 4> retireNames_{};
    std::uint32_t stealName_ = 0;
    std::uint32_t eventsCounterName_ = 0;
    std::uint32_t busBusyCounterName_ = 0;
    std::uint64_t retired_ = 0;
};

/**
 * Convenience wrapper: build a system, run the trace, return stats.
 */
SimStats simulateTrace(Scheme scheme, const TraceBuffer &trace,
                       const CacheConfig &cache_config,
                       const SharedClassifier &shared = nullptr);

} // namespace swcc

#endif // SWCC_SIM_MP_SYSTEM_HH
