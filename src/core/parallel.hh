/**
 * @file
 * Work-stealing thread pool and deterministic parallel loops.
 *
 * The experiment surface of this library — power curves, the Table 8
 * companion grids, the model-vs-simulation validation matrix — is
 * embarrassingly parallel: every cell is an independent evaluation.
 * parallelFor()/parallelMap() run those cells on a shared pool of
 * worker threads while preserving a strict determinism contract:
 *
 *  - results are written into pre-sized, index-addressed output slots,
 *    so the scheduler decides *when* a cell runs, never *what* it
 *    computes or *where* its result lands;
 *  - any randomised cell must seed its own generator from its index
 *    (see Rng::split), so ordering never leaks into numbers.
 *
 * Serial (`--threads 1`) and parallel (`--threads N`) runs therefore
 * produce bit-identical output. The pool size is chosen, in priority
 * order, from setThreadCount() (the CLI's `--threads`), the
 * SWCC_THREADS environment variable, and hardware_concurrency().
 *
 * Scheduling is dynamic: iterations live in a shared range and idle
 * lanes (the caller participates as one) steal the next chunk with an
 * atomic cursor, so uneven cell costs — e.g. fixed-point solves that
 * converge at different speeds — balance automatically.
 *
 * An index that throws ends its loop: lanes stop claiming work and the
 * first exception reaches the caller. The pool retries nothing; what a
 * failing campaign cell means is campaign.hh's business.
 */

#ifndef SWCC_CORE_PARALLEL_HH
#define SWCC_CORE_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace swcc
{

/**
 * Activity counters for one pool lane. Lane 0 is the participating
 * caller; lanes 1..N-1 are worker threads.
 */
struct WorkerStats
{
    std::uint64_t tasksExecuted = 0; ///< Indices run by this lane.
    std::uint64_t chunksStolen = 0;  ///< Cursor claims that won work.
    std::uint64_t idleNs = 0;        ///< Time blocked waiting for work.
};

/** A consistent snapshot of a pool's activity since construction. */
struct PoolStats
{
    std::vector<WorkerStats> lanes;
    std::uint64_t jobs = 0; ///< forEach() calls that ran work.

    /** Sums every lane. */
    WorkerStats totals() const;
};

/**
 * A persistent pool of worker threads executing index-space jobs.
 *
 * One job runs at a time; forEach() blocks until the job completes and
 * the calling thread works alongside the pool's threads. A pool of
 * size 1 has no worker threads and runs everything inline.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Total lanes, including the caller; the pool spawns
     *        threads - 1 workers. 0 is treated as 1 (serial).
     */
    explicit ThreadPool(unsigned threads);

    /** Joins all workers; pending wake-ups drain cleanly. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total lanes (worker threads + the participating caller). */
    unsigned
    size() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /**
     * Runs fn(0) ... fn(n-1), in unspecified order, across the pool.
     *
     * Blocks until every index has finished. If any invocation throws,
     * remaining indices are abandoned and the first exception is
     * rethrown on the calling thread; the pool stays usable.
     *
     * Tiny jobs never pay the wake/steal machinery: the caller first
     * runs a serial prefix inline and only dispatches the remainder to
     * the workers once ~1 ms of work has accumulated, so a
     * sub-millisecond job (e.g. the Table 8 grid at 0.4 ms) completes
     * exactly like the serial path, minus a clock read per index.
     */
    void forEach(std::size_t n, const std::function<void(std::size_t)> &fn);

    /**
     * Per-lane activity since construction. Safe to call while a job
     * runs (counters are relaxed atomics); exact once the pool is
     * quiescent. Counting is always on — each increment touches only
     * the owning lane's cache line, so it is contention-free.
     */
    PoolStats stats() const;

  private:
    /** One lane's counters, padded onto a private cache line. */
    struct alignas(64) LaneCounters
    {
        std::atomic<std::uint64_t> tasks{0};
        std::atomic<std::uint64_t> chunks{0};
        std::atomic<std::uint64_t> idleNs{0};
    };

    void workerLoop(unsigned lane);

    /** Steals and runs chunks of the current job until it is drained. */
    void drainJob(unsigned lane,
                  const std::function<void(std::size_t)> &fn);

    std::vector<std::thread> workers_;
    std::unique_ptr<LaneCounters[]> laneCounters_;
    std::atomic<std::uint64_t> jobs_{0};

    /** Serialises whole jobs: one forEach() owns the pool at a time. */
    std::mutex jobMutex_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;

    // In-flight job; fields below are written under mutex_ before the
    // workers observe the jobSeq_ bump (also under mutex_), which
    // establishes the necessary happens-before edges.
    const std::function<void(std::size_t)> *jobFn_ = nullptr;
    std::size_t jobSize_ = 0;
    std::size_t jobChunk_ = 1;
    std::uint64_t jobSeq_ = 0;
    unsigned workersBusy_ = 0;
    bool stop_ = false;

    /** Next unclaimed iteration of the current job. */
    std::atomic<std::size_t> cursor_{0};
    /** Set on the first exception; stops further stealing. */
    std::atomic<bool> failed_{false};
    std::exception_ptr error_;
};

/** hardware_concurrency(), never 0. */
unsigned hardwareThreads();

/** Most lanes (threads) a pool may have, from any source. */
inline constexpr unsigned kMaxThreads = 4096;

/**
 * Overrides the lane count used by parallelFor()/parallelMap()
 * (0 restores the default: SWCC_THREADS, else hardware_concurrency()).
 *
 * @throws std::invalid_argument above kMaxThreads.
 */
void setThreadCount(unsigned threads);

/** The lane count parallelFor() will use right now. */
unsigned configuredThreads();

/**
 * The process-wide pool, sized to configuredThreads(). Rebuilt lazily
 * after setThreadCount() changes the size.
 */
ThreadPool &globalPool();

/**
 * Publishes the global pool's PoolStats to the obs metrics registry
 * as `pool.*` gauges (lanes, jobs, tasks, chunks, idle seconds).
 * Idempotent; a no-op when no pool has been created. Registered as an
 * obs finalize hook, so `--metrics-out` dumps include the pool's
 * final numbers automatically.
 */
void recordPoolMetrics();

/**
 * Runs fn(0) ... fn(n-1) on the global pool.
 *
 * Runs inline (exactly serial) when n <= 1, when one lane is
 * configured, or when called from inside another parallel loop —
 * nested parallelism never deadlocks, it just flattens.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn);

/**
 * Parallel map into a pre-sized, index-addressed vector: slot i holds
 * fn(i). The return value is bit-identical for any thread count.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, Fn &&fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn &, std::size_t>>>
{
    std::vector<std::decay_t<std::invoke_result_t<Fn &, std::size_t>>>
        out(n);
    parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

/**
 * Two-dimensional parallelMap: slot row * cols + col of the returned
 * row-major vector holds fn(row, col). All cells share one flattened
 * index space, so a grid of uneven rows (e.g. a cache-size sweep whose
 * larger configurations simulate more slowly) still load-balances
 * across the pool, and the output layout — hence the result — is
 * independent of the thread count.
 */
template <typename Fn>
auto
parallelMapGrid(std::size_t rows, std::size_t cols, Fn &&fn)
    -> std::vector<std::decay_t<
        std::invoke_result_t<Fn &, std::size_t, std::size_t>>>
{
    std::vector<std::decay_t<
        std::invoke_result_t<Fn &, std::size_t, std::size_t>>>
        out(rows * cols);
    parallelFor(rows * cols, [&](std::size_t i) {
        out[i] = fn(i / cols, i % cols);
    });
    return out;
}

} // namespace swcc

#endif // SWCC_CORE_PARALLEL_HH
