/**
 * @file
 * Unit tests for the thread pool and the determinism guarantee of the
 * parallel experiment engine: serial and multi-threaded runs must
 * produce bit-identical results.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/obs/metrics.hh"
#include "core/parallel.hh"
#include "core/scheme_evaluator.hh"
#include "core/sensitivity.hh"
#include "core/solver_cache.hh"
#include "core/workload.hh"
#include "sim/mp/validation.hh"

namespace swcc
{
namespace
{

/** Simulator runs so far in this process (the sim.runs counter). */
std::uint64_t
simRuns()
{
    for (const obs::MetricSnapshot &snap : obs::metrics().snapshot()) {
        if (snap.name == "sim.runs") {
            return static_cast<std::uint64_t>(snap.value);
        }
    }
    return 0;
}

/** Forces a lane count for one test, restoring the default after. */
class ThreadCountGuard
{
  public:
    explicit ThreadCountGuard(unsigned threads)
    {
        setThreadCount(threads);
    }
    ~ThreadCountGuard() { setThreadCount(0); }
};

TEST(ParallelPoolTest, ShutdownIsCleanWhenIdle)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    // Destructor joins workers that never received a job.
}

TEST(ParallelPoolTest, ShutdownIsCleanAfterWork)
{
    std::atomic<int> hits{0};
    {
        ThreadPool pool(3);
        pool.forEach(100, [&](std::size_t) { ++hits; });
    }
    EXPECT_EQ(hits.load(), 100);
}

TEST(ParallelPoolTest, ZeroLanesMeansSerial)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    int hits = 0;
    pool.forEach(7, [&](std::size_t) { ++hits; });
    EXPECT_EQ(hits, 7);
}

TEST(ParallelPoolTest, ReusableAcrossManyJobs)
{
    ThreadPool pool(4);
    for (int job = 0; job < 50; ++job) {
        std::vector<int> slots(37, -1);
        pool.forEach(slots.size(), [&](std::size_t i) {
            slots[i] = static_cast<int>(i);
        });
        for (std::size_t i = 0; i < slots.size(); ++i) {
            ASSERT_EQ(slots[i], static_cast<int>(i));
        }
    }
}

TEST(ParallelPoolTest, StatsAccountForEveryTaskSubmitted)
{
    ThreadPool pool(4);
    std::atomic<int> hits{0};
    pool.forEach(1000, [&](std::size_t) { ++hits; });
    pool.forEach(37, [&](std::size_t) { ++hits; });
    EXPECT_EQ(hits.load(), 1037);

    const PoolStats stats = pool.stats();
    ASSERT_EQ(stats.lanes.size(), 4u);
    EXPECT_EQ(stats.jobs, 2u);
    const WorkerStats totals = stats.totals();
    // Every submitted index ran exactly once, wherever it was stolen.
    EXPECT_EQ(totals.tasksExecuted, 1037u);
    EXPECT_GE(totals.chunksStolen, 2u);
}

TEST(ParallelPoolTest, StatsWorkOnTheSerialPath)
{
    ThreadPool pool(0);
    pool.forEach(50, [](std::size_t) {});
    const PoolStats stats = pool.stats();
    ASSERT_EQ(stats.lanes.size(), 1u);
    EXPECT_EQ(stats.jobs, 1u);
    EXPECT_EQ(stats.totals().tasksExecuted, 50u);
}

TEST(ParallelPoolTest, StatsCountTasksUpToAFailure)
{
    ThreadPool pool(2);
    try {
        pool.forEach(8, [](std::size_t i) {
            if (i == 3) {
                throw std::runtime_error("boom");
            }
        });
        FAIL() << "expected the job's exception";
    } catch (const std::runtime_error &) {
    }
    // Execution stops early, but the accounting never loses a task
    // that did run: at least the failing chunk's predecessors.
    const PoolStats stats = pool.stats();
    EXPECT_GE(stats.totals().chunksStolen, 1u);
    EXPECT_LE(stats.totals().tasksExecuted, 7u);
}

TEST(ParallelForTest, RunsZeroOneAndManyItems)
{
    ThreadCountGuard guard(4);

    int zero_calls = 0;
    parallelFor(0, [&](std::size_t) { ++zero_calls; });
    EXPECT_EQ(zero_calls, 0);

    std::vector<std::size_t> one;
    parallelFor(1, [&](std::size_t i) { one.push_back(i); });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one.front(), 0u);

    std::vector<int> many(1000, 0);
    parallelFor(many.size(), [&](std::size_t i) {
        many[i] = static_cast<int>(i) * 2;
    });
    for (std::size_t i = 0; i < many.size(); ++i) {
        ASSERT_EQ(many[i], static_cast<int>(i) * 2);
    }
}

TEST(ParallelForTest, PropagatesTheFirstException)
{
    ThreadCountGuard guard(4);
    EXPECT_THROW(
        parallelFor(64,
                    [&](std::size_t i) {
                        if (i == 13) {
                            throw std::runtime_error("cell 13 failed");
                        }
                    }),
        std::runtime_error);

    // The pool survives a failed job.
    std::atomic<int> hits{0};
    parallelFor(32, [&](std::size_t) { ++hits; });
    EXPECT_EQ(hits.load(), 32);
}

TEST(ParallelForTest, NestedLoopsFlattenInsteadOfDeadlocking)
{
    ThreadCountGuard guard(4);
    std::vector<std::vector<int>> grid(8, std::vector<int>(8, 0));
    parallelFor(8, [&](std::size_t outer) {
        parallelFor(8, [&](std::size_t inner) {
            grid[outer][inner] = static_cast<int>(outer * 8 + inner);
        });
    });
    for (std::size_t outer = 0; outer < 8; ++outer) {
        for (std::size_t inner = 0; inner < 8; ++inner) {
            ASSERT_EQ(grid[outer][inner],
                      static_cast<int>(outer * 8 + inner));
        }
    }
}

TEST(ParallelMapTest, SlotsMatchIndices)
{
    ThreadCountGuard guard(4);
    const std::vector<std::size_t> squares =
        parallelMap(100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 100u);
    for (std::size_t i = 0; i < squares.size(); ++i) {
        ASSERT_EQ(squares[i], i * i);
    }
}

TEST(ParallelConfigTest, OverrideBeatsDefaults)
{
    EXPECT_GE(hardwareThreads(), 1u);
    setThreadCount(3);
    EXPECT_EQ(configuredThreads(), 3u);
    // Above the bound: rejected, and no pool of that size is built.
    EXPECT_THROW(setThreadCount(kMaxThreads + 1), std::invalid_argument);
    EXPECT_EQ(configuredThreads(), 3u);
    setThreadCount(0);
    EXPECT_GE(configuredThreads(), 1u);
}

// --- Determinism: the acceptance criterion of the parallel engine. ---

TEST(ParallelDeterminismTest, SensitivityTableIsBitIdentical)
{
    SensitivityConfig config;
    config.processors = 16;
    config.averageOverGrid = true;

    setThreadCount(1);
    const auto serial = sensitivityTable(config);
    setThreadCount(4);
    const auto parallel = sensitivityTable(config);
    setThreadCount(0);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].scheme, parallel[i].scheme);
        EXPECT_EQ(serial[i].param, parallel[i].param);
        // Exact equality on purpose: bit-identical, not "close".
        EXPECT_EQ(serial[i].timeLow, parallel[i].timeLow);
        EXPECT_EQ(serial[i].timeHigh, parallel[i].timeHigh);
        EXPECT_EQ(serial[i].percentChange, parallel[i].percentChange);
    }
}

TEST(ParallelDeterminismTest, ValidationMatrixIsBitIdentical)
{
    ValidationConfig config;
    config.scheme = Scheme::Dragon;
    config.maxCpus = 3;
    config.instructionsPerCpu = 20'000;
    config.seed = 7;

    setThreadCount(1);
    const auto serial = validate(config);
    // Empty the memo so the 4-lane run simulates and extracts itself
    // instead of copying the serial run's stored extractions.
    clearSolverCache();
    const std::uint64_t runs = simRuns();
    setThreadCount(4);
    const auto parallel = validate(config);
    setThreadCount(0);
    EXPECT_GT(simRuns(), runs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].cpus, parallel[i].cpus);
        EXPECT_EQ(serial[i].simPower, parallel[i].simPower);
        EXPECT_EQ(serial[i].modelPower, parallel[i].modelPower);
        EXPECT_EQ(serial[i].sim.makespan, parallel[i].sim.makespan);
    }
}

TEST(ParallelDeterminismTest, PowerCurveIsBitIdenticalAndOrdered)
{
    const WorkloadParams params = middleParams();

    setThreadCount(1);
    const auto serial = evaluateBusCurve(Scheme::SoftwareFlush, params, 32);
    setThreadCount(4);
    const auto parallel =
        evaluateBusCurve(Scheme::SoftwareFlush, params, 32);
    setThreadCount(0);

    ASSERT_EQ(serial.size(), 32u);
    ASSERT_EQ(parallel.size(), 32u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].processors, parallel[i].processors);
        EXPECT_EQ(serial[i].processingPower,
                  parallel[i].processingPower);
    }
}

} // namespace
} // namespace swcc
