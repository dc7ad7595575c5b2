/**
 * @file
 * Trace-driven processor model.
 */

#ifndef SWCC_SIM_MP_PROCESSOR_HH
#define SWCC_SIM_MP_PROCESSOR_HH

#include <cstddef>
#include <cstdint>
#include <span>

#include "sim/mp/sim_stats.hh"
#include "sim/trace/trace_event.hh"

namespace swcc
{

/**
 * One processor replaying its program-order slice of the trace.
 *
 * The processor is a timing shell: it advances its local clock by the
 * CPU cost of each reference (the system supplies bus grants) and
 * accumulates its statistics. Each IFetch costs one execution cycle —
 * except the fetch of a flush instruction, whose execution cost is the
 * flush operation itself (paper Table 1 prices "instruction execution
 * (except flush)").
 *
 * It reads its events in place: a slice of trace positions, in
 * program order, into the caller's interleaved trace.
 */
class TraceProcessor
{
  public:
    explicit TraceProcessor(CpuId id) : id_(id) {}

    /**
     * Assigns this processor's program order: @p positions index
     * @p trace. Both must outlive the run that reads them.
     */
    void
    setEvents(const TraceEvent *trace,
              std::span<const std::uint32_t> positions)
    {
        trace_ = trace;
        next_ = positions.data();
        end_ = positions.data() + positions.size();
    }

    CpuId id() const { return id_; }

    bool done() const { return next_ == end_; }

    /** Next event to execute. @pre !done() */
    const TraceEvent &current() const { return trace_[*next_]; }

    /**
     * True if the next event after the current one is a flush by this
     * processor — i.e. the current IFetch fetches a flush instruction.
     */
    bool
    currentFetchesFlush() const
    {
        return end_ - next_ > 1 && trace_[next_[1]].type == RefType::Flush;
    }

    /**
     * Consumes the current event and prefetches the one kPrefetch
     * events on: program order hops through the interleaved trace,
     * where no hardware prefetcher follows it.
     */
    void
    advance()
    {
        ++next_;
        if (end_ - next_ > kPrefetch) {
            __builtin_prefetch(&trace_[next_[kPrefetch]]);
        }
    }

    /** Local clock: cycle at which this processor can issue next. */
    Cycles readyAt = 0.0;

    /** Accumulated statistics. */
    CpuStats stats;

    /**
     * Loses one cycle to a snooped write-broadcast (Dragon cycle
     * stealing).
     */
    void
    stealCycle()
    {
        readyAt += 1.0;
        stats.stolen += 1.0;
    }

  private:
    /** How many events ahead advance() prefetches. */
    static constexpr std::ptrdiff_t kPrefetch = 4;

    CpuId id_;
    const TraceEvent *trace_ = nullptr;
    const std::uint32_t *next_ = nullptr;
    const std::uint32_t *end_ = nullptr;
};

} // namespace swcc

#endif // SWCC_SIM_MP_PROCESSOR_HH
