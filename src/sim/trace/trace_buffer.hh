/**
 * @file
 * In-memory container for an interleaved multiprocessor trace.
 */

#ifndef SWCC_SIM_TRACE_TRACE_BUFFER_HH
#define SWCC_SIM_TRACE_TRACE_BUFFER_HH

#include <cstddef>
#include <vector>

#include "sim/trace/trace_event.hh"

namespace swcc
{

/**
 * The largest cpu id a trace may hold. numCpus() is a CpuId too, so an
 * event of cpu 65535 would wrap it to 0; the trace readers reject such
 * ids.
 */
inline constexpr CpuId kMaxTraceCpu = 65534;

/**
 * An interleaved multiprocessor address trace.
 *
 * Events appear in global interleave order; per-processor program order
 * is the subsequence with a given cpu id. The buffer tracks the number
 * of distinct processors for convenience.
 */
class TraceBuffer
{
  public:
    TraceBuffer() = default;

    /** Appends one event; requires event.cpu <= kMaxTraceCpu (< 65535). */
    void
    append(TraceEvent event)
    {
        if (event.cpu >= numCpus_) {
            numCpus_ = static_cast<CpuId>(event.cpu + 1);
        }
        events_.push_back(event);
    }

    /** Appends with individual fields; requires cpu <= kMaxTraceCpu. */
    void
    append(CpuId cpu, RefType type, Addr addr)
    {
        append(TraceEvent{addr, cpu, type});
    }

    const std::vector<TraceEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

    /** One more than the largest cpu id seen. */
    CpuId numCpus() const { return numCpus_; }

    const TraceEvent &operator[](std::size_t i) const { return events_[i]; }

    auto begin() const { return events_.begin(); }
    auto end() const { return events_.end(); }

    /** Removes all events. */
    void clear();

    /** Reserves capacity for @p n events. */
    void reserve(std::size_t n) { events_.reserve(n); }

    /**
     * The sub-trace containing only events of processors < @p cpus
     * (used to derive smaller-machine traces from a larger one, as when
     * plotting "four or fewer processors" from one trace).
     */
    TraceBuffer restrictedToCpus(CpuId cpus) const;

    /** Number of events with the given type. */
    std::size_t countType(RefType type) const;

  private:
    std::vector<TraceEvent> events_;
    CpuId numCpus_ = 0;
};

} // namespace swcc

#endif // SWCC_SIM_TRACE_TRACE_BUFFER_HH
