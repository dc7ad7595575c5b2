#include "core/parallel.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/obs/obs.hh"

namespace swcc
{

namespace
{

std::uint64_t
elapsedNs(std::chrono::steady_clock::time_point since)
{
    const auto delta = std::chrono::steady_clock::now() - since;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(delta)
            .count();
    return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

} // namespace

WorkerStats
PoolStats::totals() const
{
    WorkerStats sum;
    for (const WorkerStats &lane : lanes) {
        sum.tasksExecuted += lane.tasksExecuted;
        sum.chunksStolen += lane.chunksStolen;
        sum.idleNs += lane.idleNs;
    }
    return sum;
}

namespace
{

/**
 * True while this thread is executing inside a parallel loop (worker
 * or participating caller); nested loops then run inline.
 */
thread_local bool tls_in_parallel = false;

struct InParallelScope
{
    InParallelScope() { tls_in_parallel = true; }
    ~InParallelScope() { tls_in_parallel = false; }
};

std::atomic<unsigned> thread_override{0};

/** SWCC_THREADS as a lane count; 0 when unset or not a positive int. */
unsigned
envThreads()
{
    const char *env = std::getenv("SWCC_THREADS");
    if (env == nullptr || *env == '\0') {
        return 0;
    }
    char *end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0' || parsed == 0 ||
        parsed > kMaxThreads) {
        return 0; // Nonsense values fall back to the default.
    }
    return static_cast<unsigned>(parsed);
}

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned lanes = std::max(1u, threads);
    laneCounters_ = std::make_unique<LaneCounters[]>(lanes);
    workers_.reserve(lanes - 1);
    for (unsigned i = 1; i < lanes; ++i) {
        workers_.emplace_back([this, i] { workerLoop(i); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_) {
        worker.join();
    }
}

void
ThreadPool::workerLoop(unsigned lane)
{
    InParallelScope scope;
    LaneCounters &counters = laneCounters_[lane];
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        const auto idleStart = std::chrono::steady_clock::now();
        wake_.wait(lock, [&] {
            return stop_ || (jobFn_ != nullptr && jobSeq_ != seen);
        });
        counters.idleNs.fetch_add(elapsedNs(idleStart),
                                  std::memory_order_relaxed);
        if (stop_) {
            return;
        }
        seen = jobSeq_;
        const auto *fn = jobFn_;
        ++workersBusy_;
        lock.unlock();
        drainJob(lane, *fn);
        lock.lock();
        if (--workersBusy_ == 0) {
            done_.notify_all();
        }
    }
}

void
ThreadPool::drainJob(unsigned lane,
                     const std::function<void(std::size_t)> &fn)
{
    const std::size_t n = jobSize_;
    const std::size_t chunk = jobChunk_;
    LaneCounters &counters = laneCounters_[lane];

    obs::TraceRecorder &trc = obs::tracer();
    const bool tracing = trc.enabled();
    std::uint32_t chunkName = 0;
    std::uint32_t stealName = 0;
    if (tracing) {
        thread_local bool named = false;
        if (!named) {
            named = true;
            trc.setThreadName(
                obs::TraceRecorder::kWallPid, trc.callerTid(),
                lane == 0 ? std::string("caller")
                          : "pool-worker-" + std::to_string(lane));
        }
        chunkName = trc.intern("pool.chunk");
        stealName = trc.intern("pool.steal");
    }

    for (;;) {
        const std::size_t begin =
            cursor_.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n) {
            return;
        }
        const std::size_t end = std::min(n, begin + chunk);
        counters.chunks.fetch_add(1, std::memory_order_relaxed);
        double chunkStart = 0.0;
        if (tracing) {
            chunkStart = trc.nowUs();
            trc.recordInstant(stealName, obs::TraceRecorder::kWallPid,
                              trc.callerTid(), chunkStart);
        }
        std::size_t executed = 0;
        for (std::size_t i = begin; i < end; ++i) {
            if (failed_.load(std::memory_order_relaxed)) {
                break;
            }
            try {
                fn(i);
                ++executed;
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!error_) {
                    error_ = std::current_exception();
                }
                failed_.store(true, std::memory_order_relaxed);
                break;
            }
        }
        counters.tasks.fetch_add(executed, std::memory_order_relaxed);
        if (tracing) {
            trc.recordComplete(chunkName, obs::TraceRecorder::kWallPid,
                               trc.callerTid(), chunkStart,
                               trc.nowUs() - chunkStart);
        }
        if (failed_.load(std::memory_order_relaxed)) {
            return;
        }
    }
}

void
ThreadPool::forEach(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    if (n == 0) {
        return;
    }
    if (workers_.empty() || n == 1 || tls_in_parallel) {
        // Serial path: identical iteration order, no scheduling at all.
        jobs_.fetch_add(1, std::memory_order_relaxed);
        std::size_t executed = 0;
        try {
            for (std::size_t i = 0; i < n; ++i) {
                fn(i);
                ++executed;
            }
        } catch (...) {
            laneCounters_[0].tasks.fetch_add(
                executed, std::memory_order_relaxed);
            throw;
        }
        laneCounters_[0].tasks.fetch_add(executed,
                                         std::memory_order_relaxed);
        return;
    }
    jobs_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> job_lock(jobMutex_);

    // Min-work-per-lane threshold: run a serial prefix on the caller
    // until ~1 ms of work has accumulated. A job that finishes inside
    // the budget never wakes a worker, so sub-millisecond jobs (the
    // 0.4 ms Table 8 grid) cost exactly the serial path instead of a
    // round of wakes and steals for a 1.0x "speedup".
    constexpr std::chrono::nanoseconds kInlineBudget{1'000'000};
    std::size_t next = 0;
    {
        InParallelScope scope;
        LaneCounters &counters = laneCounters_[0];
        // The prefix is one cursor claim by lane 0 for accounting.
        counters.chunks.fetch_add(1, std::memory_order_relaxed);
        const auto start = std::chrono::steady_clock::now();
        std::size_t executed = 0;
        try {
            while (next < n) {
                fn(next);
                ++next;
                ++executed;
                if (std::chrono::steady_clock::now() - start >=
                    kInlineBudget) {
                    break;
                }
            }
        } catch (...) {
            counters.tasks.fetch_add(executed,
                                     std::memory_order_relaxed);
            throw;
        }
        counters.tasks.fetch_add(executed, std::memory_order_relaxed);
    }
    if (next >= n) {
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobFn_ = &fn;
        jobSize_ = n;
        // Aim for ~8 steals per lane so uneven cells rebalance without
        // the cursor becoming contended.
        jobChunk_ = std::max<std::size_t>(
            1, (n - next) / (static_cast<std::size_t>(size()) * 8));
        cursor_.store(next, std::memory_order_relaxed);
        failed_.store(false, std::memory_order_relaxed);
        error_ = nullptr;
        ++jobSeq_;
    }
    wake_.notify_all();
    {
        InParallelScope scope;
        drainJob(0, fn);
    }
    const auto idleStart = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return workersBusy_ == 0; });
    laneCounters_[0].idleNs.fetch_add(elapsedNs(idleStart),
                                      std::memory_order_relaxed);
    // Late-waking workers see a null job and keep sleeping; nothing may
    // touch fn once forEach returns.
    jobFn_ = nullptr;
    if (error_) {
        std::exception_ptr error = error_;
        error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

PoolStats
ThreadPool::stats() const
{
    PoolStats out;
    out.jobs = jobs_.load(std::memory_order_relaxed);
    out.lanes.resize(size());
    for (unsigned lane = 0; lane < size(); ++lane) {
        const LaneCounters &counters = laneCounters_[lane];
        out.lanes[lane].tasksExecuted =
            counters.tasks.load(std::memory_order_relaxed);
        out.lanes[lane].chunksStolen =
            counters.chunks.load(std::memory_order_relaxed);
        out.lanes[lane].idleNs =
            counters.idleNs.load(std::memory_order_relaxed);
    }
    return out;
}

unsigned
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
setThreadCount(unsigned threads)
{
    if (threads > kMaxThreads) {
        throw std::invalid_argument(
            "thread count " + std::to_string(threads) +
            " exceeds the maximum of " + std::to_string(kMaxThreads));
    }
    thread_override.store(threads, std::memory_order_relaxed);
}

unsigned
configuredThreads()
{
    const unsigned forced = thread_override.load(std::memory_order_relaxed);
    if (forced != 0) {
        return forced;
    }
    const unsigned env = envThreads();
    if (env != 0) {
        return env;
    }
    return hardwareThreads();
}

namespace
{

std::mutex pool_mutex;
std::unique_ptr<ThreadPool> global_pool;

} // namespace

ThreadPool &
globalPool()
{
    std::lock_guard<std::mutex> lock(pool_mutex);
    const unsigned want = configuredThreads();
    if (!global_pool || global_pool->size() != want) {
        // Join the old workers before spawning anew.
        global_pool.reset();
        global_pool = std::make_unique<ThreadPool>(want);
        // First pool: make `--metrics-out` dumps include pool.* gauges
        // without the entry points having to know about the pool.
        static bool hook_registered = false;
        if (!hook_registered) {
            hook_registered = true;
            obs::addFinalizeHook(recordPoolMetrics);
        }
    }
    return *global_pool;
}

void
recordPoolMetrics()
{
    PoolStats stats;
    unsigned lanes = 0;
    {
        std::lock_guard<std::mutex> lock(pool_mutex);
        if (!global_pool) {
            return;
        }
        stats = global_pool->stats();
        lanes = global_pool->size();
    }
    const WorkerStats totals = stats.totals();
    obs::MetricsRegistry &registry = obs::metrics();
    registry.gauge("pool.lanes").set(static_cast<double>(lanes));
    registry.gauge("pool.jobs").set(static_cast<double>(stats.jobs));
    registry.gauge("pool.tasks_executed")
        .set(static_cast<double>(totals.tasksExecuted));
    registry.gauge("pool.chunks_stolen")
        .set(static_cast<double>(totals.chunksStolen));
    registry.gauge("pool.idle_seconds")
        .set(static_cast<double>(totals.idleNs) / 1e9);
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    if (n <= 1 || tls_in_parallel || configuredThreads() <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            fn(i);
        }
        return;
    }
    globalPool().forEach(n, fn);
}

} // namespace swcc
