/**
 * @file
 * Tests for the solver memo cache and the curve kernels:
 * cold-vs-warm bitwise identity, curve-vs-per-point bitwise identity,
 * race-free concurrent insertion (the suite name starts with
 * "Parallel" so the tsan preset picks it up), the disable gate, a
 * campaign's kill hook leaving the memo in use, and the memo key
 * builder's field coverage.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/bus_model.hh"
#include "core/campaign/campaign.hh"
#include "core/cost_model.hh"
#include "core/network_model.hh"
#include "core/per_instruction.hh"
#include "core/scheme_evaluator.hh"
#include "core/solver_cache.hh"
#include "core/sweep.hh"
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
        setSolverCacheEnabled(true);
        clearSolverCache();
    }

    void
    TearDown() override
    {
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

TEST_F(ParallelSolverCacheTest, CurvesNeitherReadNorFillTheMemo)
{
    // A curve is solved on every call: it counts no lookup and stores
    // nothing, so a point query after it still misses, and the point
    // solve equals the curve's element bitwise.
    const WorkloadParams params = middleParams();
    const SolverCacheStats before = solverCacheStats();
    const auto bus = evaluateBusCurve(Scheme::Base, params, 24);
    const auto network =
        evaluateNetworkCurve(Scheme::SoftwareFlush, params, 12);
    const SolverCacheStats after = solverCacheStats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.evictions, before.evictions);

    const BusSolution busPoint = evaluateBus(Scheme::Base, params, 17);
    const NetworkSolution networkPoint =
        evaluateNetwork(Scheme::SoftwareFlush, params, 7);
    const SolverCacheStats points = solverCacheStats();
    EXPECT_EQ(points.hits, after.hits);
    EXPECT_EQ(points.misses, after.misses + 2);
    expectIdentical(bus[16], busPoint);
    expectIdentical(network[6], networkPoint);
}

TEST_F(ParallelSolverCacheTest, ZeroSizedCurvesThrowLikePointSolves)
{
    // Size 0 is no machine: both curves reject it as their point
    // solves do, in either memo state.
    const WorkloadParams params = middleParams();
    for (bool memo : {true, false}) {
        SCOPED_TRACE(memo ? "memo on" : "memo off");
        setSolverCacheEnabled(memo);
        EXPECT_THROW(evaluateBus(Scheme::Base, params, 0),
                     std::invalid_argument);
        EXPECT_THROW(evaluateBusCurve(Scheme::Base, params, 0),
                     std::invalid_argument);
        EXPECT_THROW(evaluateNetwork(Scheme::SoftwareFlush, params, 0),
                     std::invalid_argument);
        EXPECT_THROW(
            evaluateNetworkCurve(Scheme::SoftwareFlush, params, 0),
            std::invalid_argument);
    }
    setSolverCacheEnabled(true);
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
    // Threads solve overlapping network curves of different lengths
    // at once, with the memo on; every answer must equal a memo-free
    // serial point solve.
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
        memo.insert(MemoKey(MemoDomain::Bus).add(i).key(),
                    static_cast<int>(i));
    }
    const SolverCacheStats after = solverCacheStats();
    EXPECT_GT(after.evictions, before.evictions);
    EXPECT_GE(after.evictions - before.evictions, 4096u);

    memo.clear();
    EXPECT_EQ(solverCacheStats().evictions, after.evictions);
}

TEST_F(ParallelSolverCacheTest, ArmedKillHookKeepsTheMemo)
{
    // The kill hook is counted inside runCells() and leaves the memo
    // alone: a sweep armed with a kill that never fires answers every
    // point from the memo an unarmed sweep filled, bit for bit.
    const std::vector<Scheme> schemes = {
        Scheme::Base, Scheme::Dragon, Scheme::SoftwareFlush};
    const std::vector<double> values = linspace(0.05, 0.5, 5);
    const auto unarmed =
        sweepPowerGrid(ParamId::Shd, false, values, middleParams(), 16,
                       schemes, campaign::CampaignOptions{});

    campaign::CampaignOptions armed;
    armed.faultSpec = "task-kill:1@100";
    const SolverCacheStats warm = solverCacheStats();
    const auto rows = sweepPowerGrid(ParamId::Shd, false, values,
                                     middleParams(), 16, schemes, armed);
    EXPECT_EQ(solverCacheStats().hits - warm.hits,
              values.size() * schemes.size());
    EXPECT_EQ(solverCacheStats().misses, warm.misses);
    ASSERT_EQ(rows.size(), unarmed.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(rows[i].power.size(), schemes.size());
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            EXPECT_TRUE(sameBits(rows[i].power[s], unarmed[i].power[s]))
                << "row " << i << " scheme " << s;
        }
    }
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

/** A bus point key in the layout evaluateBus() uses. */
SolverCacheKey
busKey(Scheme scheme, const WorkloadParams &params,
       const CostModel &costs, unsigned processors)
{
    return MemoKey(MemoDomain::Bus)
        .add(scheme)
        .add(params)
        .add(costs)
        .add(std::uint64_t{processors})
        .key();
}

/** The eleven Table 2 fields, for perturbing one at a time. */
constexpr double WorkloadParams::*kParamFields[] = {
    &WorkloadParams::ls,     &WorkloadParams::msdat,
    &WorkloadParams::mains,  &WorkloadParams::md,
    &WorkloadParams::shd,    &WorkloadParams::wr,
    &WorkloadParams::apl,    &WorkloadParams::mdshd,
    &WorkloadParams::oclean, &WorkloadParams::opres,
    &WorkloadParams::nshd,
};

TEST(SolverMemoKeyTest, SignedZerosAndNaNPayloadsKeyEqually)
{
    EXPECT_EQ(MemoKey(MemoDomain::Bus).add(-0.0).key(),
              MemoKey(MemoDomain::Bus).add(0.0).key());
    const double nan1 = std::numeric_limits<double>::quiet_NaN();
    const double nan2 = std::nan("0x5");
    EXPECT_EQ(MemoKey(MemoDomain::Bus).add(nan1).key(),
              MemoKey(MemoDomain::Bus).add(nan2).key());

    // The same holds inside a parameter set.
    const BusCostModel costs;
    WorkloadParams a = middleParams();
    WorkloadParams b = middleParams();
    a.md = 0.0;
    b.md = -0.0;
    EXPECT_EQ(busKey(Scheme::Dragon, a, costs, 8),
              busKey(Scheme::Dragon, b, costs, 8));
    a.md = nan1;
    b.md = nan2;
    EXPECT_EQ(busKey(Scheme::Dragon, a, costs, 8),
              busKey(Scheme::Dragon, b, costs, 8));
}

TEST(SolverMemoKeyTest, EveryParameterChangesTheKey)
{
    // The smallest change of each field, one at a time, moves the key.
    const BusCostModel costs;
    const WorkloadParams base = middleParams();
    const SolverCacheKey reference = busKey(Scheme::Dragon, base, costs, 8);
    for (std::size_t i = 0; i < std::size(kParamFields); ++i) {
        SCOPED_TRACE(i);
        WorkloadParams changed = base;
        double &field = changed.*kParamFields[i];
        field = std::nextafter(field, 2.0 * field + 1.0);
        EXPECT_NE(busKey(Scheme::Dragon, changed, costs, 8), reference);
    }

    // apl is keyed by its own bits, not by 1/apl: these two apl values
    // have the same reciprocal but are different workloads.
    WorkloadParams a = base;
    WorkloadParams b = base;
    a.apl = 7.692307692307693;
    b.apl = std::nextafter(a.apl, 8.0);
    ASSERT_EQ(1.0 / a.apl, 1.0 / b.apl);
    EXPECT_NE(busKey(Scheme::Dragon, a, costs, 8),
              busKey(Scheme::Dragon, b, costs, 8));
}

TEST(SolverMemoKeyTest, SchemeSizeAndCostTableChangeTheKey)
{
    const BusCostModel costs;
    const WorkloadParams params = middleParams();
    std::vector<SolverCacheKey> keys;
    for (Scheme scheme : kAllSchemes) {
        keys.push_back(busKey(scheme, params, costs, 8));
    }
    keys.push_back(busKey(Scheme::Dragon, params, costs, 9));
    for (Operation op : kAllOperations) {
        if (!costs.supports(op)) {
            continue;
        }
        const OpCost cost = costs.cost(op);
        BusCostModel cpu = costs;
        cpu.setCost(op, {std::nextafter(cost.cpu, 1e9), cost.channel});
        keys.push_back(busKey(Scheme::Dragon, params, cpu, 8));
        BusCostModel channel = costs;
        channel.setCost(op,
                        {cost.cpu, std::nextafter(cost.channel, 1e9)});
        keys.push_back(busKey(Scheme::Dragon, params, channel, 8));
    }
    // A table that leaves operations unsupported keys apart too.
    keys.push_back(
        busKey(Scheme::Dragon, params, NetworkCostModel(3), 8));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = i + 1; j < keys.size(); ++j) {
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
        }
    }
}

TEST(SolverMemoKeyTest, DomainsNeverShareAKey)
{
    const MemoDomain domains[] = {
        MemoDomain::Bus,
        MemoDomain::Network,
        MemoDomain::ServiceGroup,
        MemoDomain::Extraction,
    };
    const BusCostModel costs;
    const WorkloadParams params = middleParams();
    std::vector<SolverCacheKey> keys;
    for (MemoDomain domain : domains) {
        keys.push_back(MemoKey(domain)
                           .add(Scheme::Dragon)
                           .add(params)
                           .add(costs)
                           .add(std::uint64_t{8})
                           .key());
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = i + 1; j < keys.size(); ++j) {
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
        }
    }
}

TEST_F(ParallelSolverCacheTest, NearbyAplValuesAreSolvedApart)
{
    // Two apl values with one reciprocal: the memo must not answer the
    // second with the first one's solution.
    WorkloadParams a = middleParams();
    a.apl = 7.692307692307693;
    WorkloadParams b = a;
    b.apl = std::nextafter(a.apl, 8.0);
    for (Scheme scheme : kAllSchemes) {
        SCOPED_TRACE(schemeName(scheme));
        clearSolverCache();
        evaluateBus(scheme, a, 16);
        const BusSolution warm = evaluateBus(scheme, b, 16);
        setSolverCacheEnabled(false);
        const BusSolution direct = evaluateBus(scheme, b, 16);
        setSolverCacheEnabled(true);
        expectIdentical(warm, direct);
    }
}

} // namespace
} // namespace swcc
