/**
 * @file
 * Span tracing with Chrome trace-event / Perfetto JSON emission.
 *
 * Threads record fixed-size span/instant/counter records into
 * per-thread ring buffers; nothing is formatted, allocated, or locked
 * on the recording path. When the ring wraps, the oldest records are
 * overwritten (and counted), bounding memory for arbitrarily long
 * runs. writeChromeTrace() — called once, from a quiescent point at
 * the end of a run — merges the rings, sorts each (pid, tid) stream
 * by timestamp, repairs any B/E pairs split by ring wrap, and emits
 * `{"traceEvents": [...]}` JSON loadable in Perfetto
 * (https://ui.perfetto.dev) or chrome://tracing.
 *
 * Two time domains share one file:
 *  - wall time (pid 1): pool tasks, solver calls, harness phases;
 *    timestamps are microseconds since the recorder was created;
 *  - simulated time (pid 2, 3, ... — one pid per simulator run):
 *    per-CPU retire/bus spans with timestamps in *cycles* (1 cycle
 *    rendered as 1 us), giving a flame-style timeline of where the
 *    simulated machine spent its cycles.
 *
 * The recorder starts disabled: every instrumentation site guards on
 * enabled() (or a cached pointer), so the cost of disabled tracing is
 * a single predictable branch.
 */

#ifndef SWCC_CORE_OBS_TRACE_HH
#define SWCC_CORE_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace swcc::obs
{

/** One ring-buffer record; kind selects which fields are meaningful. */
struct TraceRecord
{
    enum class Kind : std::uint8_t
    {
        Complete,   ///< X event: ts + dur.
        Begin,      ///< B event: ts.
        End,        ///< E event: ts.
        Instant,    ///< i event: ts.
        Counter,    ///< C event: ts + value (stored in dur).
        FlowStart,  ///< s event: ts + id; binds to the enclosing slice.
        FlowStep,   ///< t event: ts + id.
        FlowEnd,    ///< f event: ts + id.
        AsyncBegin, ///< b event: ts + id; matched cross-thread by id.
        AsyncEnd,   ///< e event: ts + id.
    };

    double ts = 0.0;
    double dur = 0.0; ///< Duration (Complete) or value (Counter).
    std::uint32_t name = 0;
    std::int32_t pid = 0;
    std::int32_t tid = 0;
    Kind kind = Kind::Complete;
    /** Flow/async correlation id (e.g. a service trace id). */
    std::uint64_t id = 0;
};

/**
 * The process-wide span recorder (see file comment).
 *
 * Recording functions append to the calling thread's ring and are
 * safe to call concurrently from any number of threads; they do NOT
 * check enabled() — instrumentation sites gate on it so the disabled
 * cost stays one branch. writeChromeTrace()/clearForTest() must be
 * called from a quiescent point (no thread mid-record).
 */
class TraceRecorder
{
  public:
    /** The wall-clock process id in emitted traces. */
    static constexpr std::int32_t kWallPid = 1;

    /** Whether instrumentation sites should record. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Enables/disables recording. */
    void setEnabled(bool on);

    /** Interns @p name, returning a stable id for record* calls. */
    std::uint32_t intern(std::string_view name);

    /** Microseconds of wall time since the recorder was created. */
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    /** This thread's wall-domain tid (creates the ring on first use). */
    std::int32_t callerTid();

    void recordComplete(std::uint32_t name, std::int32_t pid,
                        std::int32_t tid, double ts, double dur);
    void recordBegin(std::uint32_t name, std::int32_t pid,
                     std::int32_t tid, double ts);
    void recordEnd(std::int32_t pid, std::int32_t tid, double ts);
    void recordInstant(std::uint32_t name, std::int32_t pid,
                       std::int32_t tid, double ts);
    void recordCounter(std::uint32_t name, std::int32_t pid,
                       std::int32_t tid, double ts, double value);

    /**
     * Flow events ("s"/"t"/"f", cat "swcc.flow") draw arrows between
     * the slices enclosing their timestamps across threads; all three
     * must share @p name and @p id. Async events ("b"/"e", cat
     * "swcc.async") render an [begin, end) interval matched by @p id
     * even when begin and end land on different threads.
     */
    void recordFlowStart(std::uint32_t name, std::int32_t pid,
                         std::int32_t tid, double ts, std::uint64_t id);
    void recordFlowStep(std::uint32_t name, std::int32_t pid,
                        std::int32_t tid, double ts, std::uint64_t id);
    void recordFlowEnd(std::uint32_t name, std::int32_t pid,
                       std::int32_t tid, double ts, std::uint64_t id);
    void recordAsyncBegin(std::uint32_t name, std::int32_t pid,
                          std::int32_t tid, double ts,
                          std::uint64_t id);
    void recordAsyncEnd(std::uint32_t name, std::int32_t pid,
                        std::int32_t tid, double ts, std::uint64_t id);

    /** Names a process/thread in the emitted trace (M events). */
    void setProcessName(std::int32_t pid, std::string name);
    void setThreadName(std::int32_t pid, std::int32_t tid,
                       std::string name);

    /** A fresh simulated-time pid (2, 3, ...), one per simulator run. */
    std::int32_t nextSimPid();

    /** Records overwritten by ring wrap since the last clear. */
    std::uint64_t droppedRecords() const;

    /** Ring capacity (records per thread) for rings created later. */
    void setRingCapacity(std::size_t records);

    /** Emits the merged Chrome trace-event JSON. Quiescent only. */
    void writeChromeTrace(std::ostream &os) const;

    /** Empties all rings and metadata; interned names persist. */
    void clearForTest();

  private:
    struct Ring
    {
        explicit Ring(std::size_t cap, std::int32_t tid_)
            : records(cap), tid(tid_)
        {
        }
        std::vector<TraceRecord> records;
        /** Total appends ever; slot = count % capacity (drop-oldest). */
        std::atomic<std::uint64_t> count{0};
        std::int32_t tid;
    };

    Ring &localRing();
    void append(const TraceRecord &record);

    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::atomic<bool> enabled_{false};
    std::atomic<std::int32_t> nextSimPid_{2};
    std::atomic<std::size_t> ringCapacity_{1u << 16};

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Ring>> rings_;
    std::vector<std::string> names_;
    std::int32_t nextTid_ = 1;
    std::vector<std::pair<std::int32_t, std::string>> processNames_;
    /** ((pid, tid), name) */
    std::vector<std::pair<std::pair<std::int32_t, std::int32_t>,
                          std::string>>
        threadNames_;
};

/** The process-wide recorder. */
TraceRecorder &tracer();

/**
 * RAII X-event span on the calling thread's wall-time track. Costs
 * one branch when tracing is disabled.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::uint32_t name)
    {
        if (tracer().enabled()) {
            name_ = name;
            start_ = tracer().nowUs();
        }
    }

    ~ScopedSpan()
    {
        if (start_ >= 0.0) {
            TraceRecorder &trc = tracer();
            trc.recordComplete(name_, TraceRecorder::kWallPid,
                               trc.callerTid(), start_,
                               trc.nowUs() - start_);
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    double start_ = -1.0;
    std::uint32_t name_ = 0;
};

/**
 * RAII B/E phase on the calling thread's wall-time track. Phases are
 * the coarse, human-named sections of a run ("generate traces",
 * "simulate", "solve") — few, strictly nested, and emitted as
 * explicit Begin/End pairs.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(std::string_view name)
    {
        TraceRecorder &trc = tracer();
        if (trc.enabled()) {
            active_ = true;
            trc.recordBegin(trc.intern(name), TraceRecorder::kWallPid,
                            trc.callerTid(), trc.nowUs());
        }
    }

    ~ScopedPhase()
    {
        if (active_) {
            TraceRecorder &trc = tracer();
            trc.recordEnd(TraceRecorder::kWallPid, trc.callerTid(),
                          trc.nowUs());
        }
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    bool active_ = false;
};

/**
 * Writes the recorder's Chrome trace to @p path, returning @p path.
 * @throws std::runtime_error if the file cannot be written.
 */
std::string writeChromeTraceFile(const std::string &path);

} // namespace swcc::obs

#endif // SWCC_CORE_OBS_TRACE_HH
