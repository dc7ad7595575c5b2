/**
 * @file
 * Tests for the solver memo cache and the curve kernels:
 * cold-vs-warm bitwise identity, curve-vs-per-point bitwise identity,
 * race-free concurrent insertion (the suite name starts with
 * "Parallel" so the tsan preset picks it up), the disable gate, and
 * the fault-injection bypass.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/bus_model.hh"
#include "core/campaign/faults.hh"
#include "core/network_model.hh"
#include "core/per_instruction.hh"
#include "core/scheme_evaluator.hh"
#include "core/solver_cache.hh"
#include "core/workload.hh"

namespace swcc
{
namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectIdentical(const BusSolution &a, const BusSolution &b)
{
    EXPECT_EQ(a.processors, b.processors);
    EXPECT_TRUE(sameBits(a.cpu, b.cpu));
    EXPECT_TRUE(sameBits(a.bus, b.bus));
    EXPECT_TRUE(sameBits(a.waiting, b.waiting));
    EXPECT_TRUE(sameBits(a.busUtilization, b.busUtilization));
    EXPECT_TRUE(sameBits(a.busQueueLength, b.busQueueLength));
    EXPECT_TRUE(
        sameBits(a.processorUtilization, b.processorUtilization));
    EXPECT_TRUE(sameBits(a.processingPower, b.processingPower));
}

void
expectIdentical(const NetworkSolution &a, const NetworkSolution &b)
{
    EXPECT_EQ(a.stages, b.stages);
    EXPECT_EQ(a.processors, b.processors);
    EXPECT_TRUE(sameBits(a.cpu, b.cpu));
    EXPECT_TRUE(sameBits(a.network, b.network));
    EXPECT_TRUE(sameBits(a.transactionRate, b.transactionRate));
    EXPECT_TRUE(sameBits(a.unitRequestRate, b.unitRequestRate));
    EXPECT_TRUE(sameBits(a.computeFraction, b.computeFraction));
    EXPECT_TRUE(sameBits(a.inputLoad, b.inputLoad));
    EXPECT_TRUE(sameBits(a.acceptance, b.acceptance));
    EXPECT_TRUE(
        sameBits(a.cyclesPerInstruction, b.cyclesPerInstruction));
    EXPECT_TRUE(sameBits(a.waiting, b.waiting));
    EXPECT_TRUE(
        sameBits(a.processorUtilization, b.processorUtilization));
    EXPECT_TRUE(sameBits(a.processingPower, b.processingPower));
}

class ParallelSolverCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        campaign::clearFaults();
        setSolverCacheEnabled(true);
        clearSolverCache();
    }

    void
    TearDown() override
    {
        campaign::clearFaults();
        clearSolverCache();
        setSolverCacheEnabled(true);
    }
};

TEST_F(ParallelSolverCacheTest, ColdAndWarmResultsAreBitIdentical)
{
    const WorkloadParams params = middleParams();
    for (Scheme scheme : kAllSchemes) {
        for (unsigned n : {1u, 7u, 32u}) {
            const BusSolution cold = evaluateBus(scheme, params, n);
            const BusSolution warm = evaluateBus(scheme, params, n);
            expectIdentical(cold, warm);
        }
    }
    const NetworkSolution cold =
        evaluateNetwork(Scheme::SoftwareFlush, params, 6);
    const NetworkSolution warm =
        evaluateNetwork(Scheme::SoftwareFlush, params, 6);
    expectIdentical(cold, warm);
}

TEST_F(ParallelSolverCacheTest, WarmLookupsCountAsHits)
{
    const WorkloadParams params = middleParams();
    evaluateBus(Scheme::Dragon, params, 12);
    const SolverCacheStats before = solverCacheStats();
    evaluateBus(Scheme::Dragon, params, 12);
    const SolverCacheStats after = solverCacheStats();
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
}

TEST_F(ParallelSolverCacheTest, CachedValuesMatchUncachedSolves)
{
    const WorkloadParams params = middleParams();
    // Warm the cache, then compare each warm value against a solve
    // with the cache disabled entirely.
    for (Scheme scheme : kAllSchemes) {
        evaluateBus(scheme, params, 16);
    }
    for (Scheme scheme : kAllSchemes) {
        const BusSolution warm = evaluateBus(scheme, params, 16);
        setSolverCacheEnabled(false);
        const BusSolution direct = evaluateBus(scheme, params, 16);
        setSolverCacheEnabled(true);
        expectIdentical(warm, direct);
    }
}

TEST_F(ParallelSolverCacheTest, BusCurveMatchesPerPointSolvesBitwise)
{
    const WorkloadParams params = middleParams();
    const BusCostModel costs;
    const PerInstructionCost cost = perInstructionCost(
        operationFrequencies(Scheme::SoftwareFlush, params), costs);
    const auto curve = solveBusCurve(cost, 48);
    ASSERT_EQ(curve.size(), 48u);
    for (unsigned n = 1; n <= 48; ++n) {
        expectIdentical(curve[n - 1], solveBus(cost, n));
    }
}

TEST_F(ParallelSolverCacheTest, EvaluatedBusCurveSeedsThePointMemo)
{
    const WorkloadParams params = middleParams();
    const auto curve = evaluateBusCurve(Scheme::Base, params, 24);
    const SolverCacheStats before = solverCacheStats();
    const BusSolution point = evaluateBus(Scheme::Base, params, 17);
    const SolverCacheStats after = solverCacheStats();
    EXPECT_EQ(after.hits, before.hits + 1);
    expectIdentical(curve[16], point);
}

TEST_F(ParallelSolverCacheTest,
       NetworkCurveMatchesPerPointSolvesBitwise)
{
    const WorkloadParams params = middleParams();
    // Compare computed values, not cached copies: disable the memo so
    // both sides really solve.
    setSolverCacheEnabled(false);
    const auto curve =
        evaluateNetworkCurve(Scheme::SoftwareFlush, params, 10);
    ASSERT_EQ(curve.size(), 10u);
    for (unsigned stages = 1; stages <= 10; ++stages) {
        expectIdentical(
            curve[stages - 1],
            evaluateNetwork(Scheme::SoftwareFlush, params, stages));
    }
    setSolverCacheEnabled(true);
}

TEST_F(ParallelSolverCacheTest,
       NetworkCurveMatchesPointSolvesForEveryNetworkScheme)
{
    // Up to swccd's 24-stage admission limit, for every scheme that
    // runs on a network: the curve is a loop of point solves and must
    // stay bitwise equal to them.
    const WorkloadParams params = middleParams();
    setSolverCacheEnabled(false);
    for (Scheme scheme : kAllSchemes) {
        if (!schemeWorksOnNetwork(scheme)) {
            continue;
        }
        SCOPED_TRACE(schemeName(scheme));
        const auto curve = evaluateNetworkCurve(scheme, params, 24);
        ASSERT_EQ(curve.size(), 24u);
        for (unsigned stages = 1; stages <= 24; ++stages) {
            expectIdentical(curve[stages - 1],
                            evaluateNetwork(scheme, params, stages));
        }
    }
    setSolverCacheEnabled(true);
}

TEST_F(ParallelSolverCacheTest, EvaluatedNetworkCurveSeedsThePointMemo)
{
    const WorkloadParams params = middleParams();
    const auto curve =
        evaluateNetworkCurve(Scheme::SoftwareFlush, params, 12);
    const SolverCacheStats before = solverCacheStats();
    const NetworkSolution point =
        evaluateNetwork(Scheme::SoftwareFlush, params, 7);
    const SolverCacheStats after = solverCacheStats();
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
    expectIdentical(curve[6], point);
}

TEST_F(ParallelSolverCacheTest, BusCurveMatchesPerPointSolvesForEveryScheme)
{
    // Saturating schemes (No-Cache) and light ones (Base) both go
    // through the single scalar derive pass; lengths on either side of
    // a power of two guard the loop bounds.
    const WorkloadParams params = middleParams();
    const BusCostModel costs;
    for (Scheme scheme : kAllSchemes) {
        SCOPED_TRACE(schemeName(scheme));
        const PerInstructionCost cost = perInstructionCost(
            operationFrequencies(scheme, params), costs);
        for (unsigned max : {1u, 2u, 63u, 64u, 65u}) {
            const auto curve = solveBusCurve(cost, max);
            ASSERT_EQ(curve.size(), max);
            for (unsigned n = 1; n <= max; ++n) {
                expectIdentical(curve[n - 1], solveBus(cost, n));
            }
        }
    }
}

TEST_F(ParallelSolverCacheTest, ConcurrentNetworkCurvesStayBitIdentical)
{
    // Threads race to solve and memoize overlapping network curves of
    // different lengths; every answer must equal a memo-free serial
    // point solve.
    const WorkloadParams params = middleParams();
    std::vector<NetworkSolution> serial;
    setSolverCacheEnabled(false);
    for (unsigned stages = 1; stages <= 16; ++stages) {
        serial.push_back(
            evaluateNetwork(Scheme::NoCache, params, stages));
    }
    setSolverCacheEnabled(true);

    constexpr unsigned kThreads = 4;
    std::vector<std::vector<NetworkSolution>> got(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 3; ++round) {
                got[t] = evaluateNetworkCurve(Scheme::NoCache, params,
                                              8 + 4 * (t % 3));
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    for (unsigned t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got[t].size(), 8 + 4 * (t % 3));
        for (std::size_t i = 0; i < got[t].size(); ++i) {
            expectIdentical(got[t][i], serial[i]);
        }
    }
}

TEST_F(ParallelSolverCacheTest, DisabledCacheComputesEveryTime)
{
    const WorkloadParams params = middleParams();
    setSolverCacheEnabled(false);
    const SolverCacheStats before = solverCacheStats();
    const BusSolution a = evaluateBus(Scheme::Base, params, 9);
    const BusSolution b = evaluateBus(Scheme::Base, params, 9);
    const SolverCacheStats after = solverCacheStats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    expectIdentical(a, b);
    setSolverCacheEnabled(true);
}

TEST_F(ParallelSolverCacheTest, ShardOverflowCountsEvictions)
{
    // Drive one private memo shard past its bound: the overflow clear
    // must add the dropped entry count to the process-wide eviction
    // total. clear() calls, by contrast, are not evictions.
    SolverMemo<int> memo;
    const SolverCacheStats before = solverCacheStats();
    // Keys land on shards by hi % 16; pushing 16 * (4096 + 1)
    // distinct keys guarantees at least one shard overflows.
    for (std::uint64_t i = 0; i < 16 * 4097; ++i) {
        memo.insert(campaign::CellKey("evict-test").add(i).key(),
                    static_cast<int>(i));
    }
    const SolverCacheStats after = solverCacheStats();
    EXPECT_GT(after.evictions, before.evictions);
    EXPECT_GE(after.evictions - before.evictions, 4096u);

    memo.clear();
    EXPECT_EQ(solverCacheStats().evictions, after.evictions);
}

TEST_F(ParallelSolverCacheTest, ArmedFaultInjectionBypassesTheMemo)
{
    const WorkloadParams params = middleParams();
    // Warm the exact point the fault should hit...
    evaluateBus(Scheme::Base, params, 8);
    // ...then arm a first-solve fault. A memo hit would swallow it.
    campaign::configureFaults("solver-bus:1", 1);
    EXPECT_THROW(evaluateBus(Scheme::Base, params, 8),
                 campaign::SolverNonConvergence);
    campaign::clearFaults();
}

TEST_F(ParallelSolverCacheTest, ConcurrentMixedLookupsAreRaceFree)
{
    // Raw std::threads hammer overlapping operating points through
    // the memo: every thread inserts and hits the same shards. Run
    // under tsan, this is the data-race gate for the cache; in any
    // build it checks cross-thread results equal the serial ones.
    const WorkloadParams params = middleParams();
    std::vector<BusSolution> serial;
    setSolverCacheEnabled(false);
    for (unsigned n = 1; n <= 16; ++n) {
        serial.push_back(evaluateBus(Scheme::Dragon, params, n));
    }
    setSolverCacheEnabled(true);

    constexpr unsigned kThreads = 4;
    std::vector<std::vector<BusSolution>> got(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 3; ++round) {
                got[t].clear();
                for (unsigned n = 1; n <= 16; ++n) {
                    got[t].push_back(
                        evaluateBus(Scheme::Dragon, params, n));
                }
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    for (unsigned t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got[t].size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            expectIdentical(got[t][i], serial[i]);
        }
    }
}

} // namespace
} // namespace swcc
