/**
 * @file
 * Tests for the memo cache and the curve kernels: analytical solves,
 * the service kernel's included, neither read nor fill the memo, and
 * answer bit for bit alike when repeated and with the gate on or off;
 * curve-vs-per-point bitwise identity; a SolverMemo's bound, overflow
 * eviction count, clear(), hit/miss counting and race-free concurrent
 * lookups (the suite name starts with "Parallel" so the tsan preset
 * picks it up); a campaign's armed kill hook changing no answer; and
 * the key builder's field coverage.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
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
#include "service/service_kernel.hh"

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
    // A point is solved on every call: asked again, it answers bit for
    // bit as it did the first time.
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

TEST_F(ParallelSolverCacheTest, CachedValuesMatchUncachedSolves)
{
    // The memo gate changes no point: every scheme's bus and network
    // answers with the gate on equal those with it off, bitwise.
    const WorkloadParams params = middleParams();
    for (Scheme scheme : kAllSchemes) {
        SCOPED_TRACE(schemeName(scheme));
        evaluateBus(scheme, params, 16);
        const BusSolution on = evaluateBus(scheme, params, 16);
        setSolverCacheEnabled(false);
        const BusSolution off = evaluateBus(scheme, params, 16);
        setSolverCacheEnabled(true);
        expectIdentical(on, off);
        if (schemeWorksOnNetwork(scheme)) {
            const NetworkSolution networkOn =
                evaluateNetwork(scheme, params, 6);
            setSolverCacheEnabled(false);
            const NetworkSolution networkOff =
                evaluateNetwork(scheme, params, 6);
            setSolverCacheEnabled(true);
            expectIdentical(networkOn, networkOff);
        }
    }
}

TEST_F(ParallelSolverCacheTest, DisabledCacheComputesEveryTime)
{
    // With the gate off, points still count no lookup and answer the
    // same on every call.
    const WorkloadParams params = middleParams();
    setSolverCacheEnabled(false);
    const SolverCacheStats before = solverCacheStats();
    const BusSolution a = evaluateBus(Scheme::Base, params, 9);
    const BusSolution b = evaluateBus(Scheme::Base, params, 9);
    const NetworkSolution c =
        evaluateNetwork(Scheme::SoftwareFlush, params, 5);
    const NetworkSolution d =
        evaluateNetwork(Scheme::SoftwareFlush, params, 5);
    const SolverCacheStats after = solverCacheStats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    expectIdentical(a, b);
    expectIdentical(c, d);
    setSolverCacheEnabled(true);
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

service::Query
query(service::QueryDomain domain, Scheme scheme, unsigned size,
      const WorkloadParams &params)
{
    service::Query q;
    q.domain = domain;
    q.scheme = scheme;
    q.size = size;
    q.params = params;
    return q;
}

TEST_F(ParallelSolverCacheTest, CurvesNeitherReadNorFillTheMemo)
{
    // Curves and points are solved on every call, through the library
    // and through the service kernel alike: asked twice, none of them
    // counts a lookup or stores anything, and every point equals its
    // curve's element bitwise.
    using service::QueryDomain;
    const WorkloadParams params = middleParams();
    const service::ServiceKernel kernel;
    // One one-size bus group (a point solve) and one two-size network
    // group (a curve solve).
    const std::vector<service::Query> batch = {
        query(QueryDomain::Bus, Scheme::Base, 17, params),
        query(QueryDomain::Network, Scheme::SoftwareFlush, 7, params),
        query(QueryDomain::Bus, Scheme::Base, 17, params),
        query(QueryDomain::Network, Scheme::SoftwareFlush, 3, params),
    };
    const SolverCacheStats before = solverCacheStats();
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const auto bus = evaluateBusCurve(Scheme::Base, params, 24);
        const auto network =
            evaluateNetworkCurve(Scheme::SoftwareFlush, params, 12);
        expectIdentical(evaluateBus(Scheme::Base, params, 17), bus[16]);
        expectIdentical(
            evaluateNetwork(Scheme::SoftwareFlush, params, 7),
            network[6]);
        expectIdentical(kernel.evaluate(batch[0]).bus, bus[16]);
        expectIdentical(kernel.evaluate(batch[1]).network, network[6]);

        std::vector<service::QueryResult> results(batch.size());
        kernel.evaluateBatch(batch.data(), batch.size(),
                             results.data());
        for (const service::QueryResult &result : results) {
            ASSERT_TRUE(result.ok) << result.error;
        }
        expectIdentical(results[0].bus, bus[16]);
        expectIdentical(results[1].network, network[6]);
        expectIdentical(results[2].bus, bus[16]);
        expectIdentical(results[3].network, network[2]);
    }
    const SolverCacheStats after = solverCacheStats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.evictions, before.evictions);
}

TEST_F(ParallelSolverCacheTest, ZeroSizedCurvesThrowLikePointSolves)
{
    // Size 0 is no machine: both curves reject it as their point
    // solves do.
    const WorkloadParams params = middleParams();
    EXPECT_THROW(evaluateBus(Scheme::Base, params, 0),
                 std::invalid_argument);
    EXPECT_THROW(evaluateBusCurve(Scheme::Base, params, 0),
                 std::invalid_argument);
    EXPECT_THROW(evaluateNetwork(Scheme::SoftwareFlush, params, 0),
                 std::invalid_argument);
    EXPECT_THROW(evaluateNetworkCurve(Scheme::SoftwareFlush, params, 0),
                 std::invalid_argument);
}

TEST_F(ParallelSolverCacheTest,
       NetworkCurveMatchesPerPointSolvesBitwise)
{
    const WorkloadParams params = middleParams();
    const auto curve =
        evaluateNetworkCurve(Scheme::SoftwareFlush, params, 10);
    ASSERT_EQ(curve.size(), 10u);
    for (unsigned stages = 1; stages <= 10; ++stages) {
        expectIdentical(
            curve[stages - 1],
            evaluateNetwork(Scheme::SoftwareFlush, params, stages));
    }
}

TEST_F(ParallelSolverCacheTest,
       NetworkCurveMatchesPointSolvesForEveryNetworkScheme)
{
    // Up to swccd's 24-stage admission limit, for every scheme that
    // runs on a network: the curve is a loop of point solves and must
    // stay bitwise equal to them.
    const WorkloadParams params = middleParams();
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
    // at once; every answer must equal a serial point solve.
    const WorkloadParams params = middleParams();
    std::vector<NetworkSolution> serial;
    for (unsigned stages = 1; stages <= 16; ++stages) {
        serial.push_back(
            evaluateNetwork(Scheme::NoCache, params, stages));
    }

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

/** A key of the extraction domain, for driving private memos. */
SolverCacheKey
memoKey(std::uint64_t i)
{
    return MemoKey(MemoDomain::Extraction).add(i).key();
}

TEST_F(ParallelSolverCacheTest, LookupsCountHitsAndMisses)
{
    SolverMemo<int> memo;
    int out = -1;
    const SolverCacheStats before = solverCacheStats();
    EXPECT_FALSE(memo.lookup(memoKey(1), out));
    EXPECT_EQ(out, -1);
    memo.insert(memoKey(1), 11);
    EXPECT_TRUE(memo.lookup(memoKey(1), out));
    EXPECT_EQ(out, 11);
    EXPECT_FALSE(memo.lookup(memoKey(2), out));
    const SolverCacheStats after = solverCacheStats();
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.misses - before.misses, 2u);

    // clear() drops every entry without counting evictions.
    memo.clear();
    EXPECT_FALSE(memo.lookup(memoKey(1), out));
    EXPECT_EQ(solverCacheStats().evictions, after.evictions);
}

TEST_F(ParallelSolverCacheTest, WarmLookupsCountAsHits)
{
    // Once a memo holds its keys, every lookup of them is one hit that
    // returns the stored value, and none counts a miss.
    SolverMemo<int> memo;
    constexpr std::uint64_t kKeys = 32;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
        memo.insert(memoKey(i), static_cast<int>(i * 7));
    }
    const SolverCacheStats before = solverCacheStats();
    for (int round = 0; round < 2; ++round) {
        for (std::uint64_t i = 0; i < kKeys; ++i) {
            int out = -1;
            EXPECT_TRUE(memo.lookup(memoKey(i), out));
            EXPECT_EQ(out, static_cast<int>(i * 7));
        }
    }
    const SolverCacheStats after = solverCacheStats();
    EXPECT_EQ(after.hits, before.hits + 2 * kKeys);
    EXPECT_EQ(after.misses, before.misses);
}

TEST_F(ParallelSolverCacheTest, ShardOverflowCountsEvictions)
{
    // Drive one private memo past its bound: each overflow clear adds
    // the entries it drops to the process-wide eviction total, so
    // every distinct key inserted is either still stored or counted
    // evicted, and no more than 16 shards x 4096 entries survive.
    // clear() calls, by contrast, are not evictions.
    SolverMemo<int> memo;
    const SolverCacheStats before = solverCacheStats();
    // Keys land on shards by hi % 16; pushing 16 * (4096 + 1)
    // distinct keys guarantees at least one shard overflows.
    constexpr std::uint64_t kKeys = 16 * 4097;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
        memo.insert(memoKey(i), static_cast<int>(i));
    }
    const SolverCacheStats after = solverCacheStats();
    const std::uint64_t evicted = after.evictions - before.evictions;
    EXPECT_GE(evicted, 4096u);

    std::uint64_t stored = 0;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
        int out = -1;
        if (memo.lookup(memoKey(i), out)) {
            ++stored;
            EXPECT_EQ(out, static_cast<int>(i));
        }
    }
    EXPECT_EQ(stored + evicted, kKeys);
    EXPECT_LE(stored, 16u * 4096u);

    memo.clear();
    EXPECT_EQ(solverCacheStats().evictions, after.evictions);
}

TEST_F(ParallelSolverCacheTest, ArmedKillHookThatNeverFiresChangesNoAnswer)
{
    // The kill hook is counted inside runCells(): a sweep armed with a
    // kill that never fires answers every point as an unarmed sweep
    // does, bit for bit.
    const std::vector<Scheme> schemes = {
        Scheme::Base, Scheme::Dragon, Scheme::SoftwareFlush};
    const std::vector<double> values = linspace(0.05, 0.5, 5);
    const auto unarmed =
        sweepPowerGrid(ParamId::Shd, false, values, middleParams(), 16,
                       schemes, campaign::CampaignOptions{});

    campaign::CampaignOptions armed;
    armed.faultSpec = "task-kill:1@100";
    const auto rows = sweepPowerGrid(ParamId::Shd, false, values,
                                     middleParams(), 16, schemes, armed);
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
    // Raw std::threads insert and look up overlapping keys of one
    // memo at once, so every thread hits the same shards. Run under
    // tsan, this is the data-race gate for the memo; in any build every
    // hit must return the value stored under its key, and every lookup
    // counts once.
    SolverMemo<int> memo;
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kKeys = 64;
    constexpr int kRounds = 3;
    const SolverCacheStats before = solverCacheStats();
    std::atomic<unsigned> wrong{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                for (std::uint64_t i = 0; i < kKeys; ++i) {
                    // Each thread starts at a different key, so the
                    // threads race to fill and read the same entries.
                    const std::uint64_t key = (i + 16 * t) % kKeys;
                    int out = -1;
                    if (!memo.lookup(memoKey(key), out)) {
                        memo.insert(memoKey(key),
                                    static_cast<int>(key * 3));
                    } else if (out != static_cast<int>(key * 3)) {
                        wrong.fetch_add(1);
                    }
                }
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    EXPECT_EQ(wrong.load(), 0u);
    const SolverCacheStats after = solverCacheStats();
    EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses),
              kThreads * kRounds * kKeys);
    // A key misses at most once per thread before that thread stores
    // it.
    EXPECT_LE(after.misses - before.misses, kThreads * kKeys);
}

/** A swccd batch-group key in the layout evaluateBatch() uses. */
SolverCacheKey
groupKey(service::QueryDomain domain, Scheme scheme,
         const WorkloadParams &params)
{
    return MemoKey(MemoDomain::ServiceGroup)
        .add(std::uint64_t{static_cast<std::uint8_t>(domain)})
        .add(scheme)
        .add(params)
        .key();
}

SolverCacheKey
busGroupKey(Scheme scheme, const WorkloadParams &params)
{
    return groupKey(service::QueryDomain::Bus, scheme, params);
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
    EXPECT_EQ(MemoKey(MemoDomain::Extraction).add(-0.0).key(),
              MemoKey(MemoDomain::Extraction).add(0.0).key());
    const double nan1 = std::numeric_limits<double>::quiet_NaN();
    const double nan2 = std::nan("0x5");
    EXPECT_EQ(MemoKey(MemoDomain::Extraction).add(nan1).key(),
              MemoKey(MemoDomain::Extraction).add(nan2).key());

    // The same holds inside a parameter set.
    WorkloadParams a = middleParams();
    WorkloadParams b = middleParams();
    a.md = 0.0;
    b.md = -0.0;
    EXPECT_EQ(busGroupKey(Scheme::Dragon, a),
              busGroupKey(Scheme::Dragon, b));
    a.md = nan1;
    b.md = nan2;
    EXPECT_EQ(busGroupKey(Scheme::Dragon, a),
              busGroupKey(Scheme::Dragon, b));
}

TEST(SolverMemoKeyTest, EveryParameterChangesTheKey)
{
    // The smallest change of each field, one at a time, moves the key.
    const WorkloadParams base = middleParams();
    const SolverCacheKey reference = busGroupKey(Scheme::Dragon, base);
    for (std::size_t i = 0; i < std::size(kParamFields); ++i) {
        SCOPED_TRACE(i);
        WorkloadParams changed = base;
        double &field = changed.*kParamFields[i];
        field = std::nextafter(field, 2.0 * field + 1.0);
        EXPECT_NE(busGroupKey(Scheme::Dragon, changed), reference);
    }

    // apl is keyed by its own bits, not by 1/apl: these two apl values
    // have the same reciprocal but are different workloads.
    WorkloadParams a = base;
    WorkloadParams b = base;
    a.apl = 7.692307692307693;
    b.apl = std::nextafter(a.apl, 8.0);
    ASSERT_EQ(1.0 / a.apl, 1.0 / b.apl);
    EXPECT_NE(busGroupKey(Scheme::Dragon, a),
              busGroupKey(Scheme::Dragon, b));
}

TEST(SolverMemoKeyTest, SchemeAndQueryDomainChangeTheKey)
{
    const WorkloadParams params = middleParams();
    std::vector<SolverCacheKey> keys;
    for (Scheme scheme : kAllSchemes) {
        keys.push_back(busGroupKey(scheme, params));
    }
    keys.push_back(
        groupKey(service::QueryDomain::Network, Scheme::Base, params));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = i + 1; j < keys.size(); ++j) {
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
        }
    }
}

TEST(SolverMemoKeyTest, DomainsNeverShareAKey)
{
    const WorkloadParams params = middleParams();
    const SolverCacheKey group = MemoKey(MemoDomain::ServiceGroup)
                                     .add(Scheme::Dragon)
                                     .add(params)
                                     .key();
    const SolverCacheKey extraction = MemoKey(MemoDomain::Extraction)
                                          .add(Scheme::Dragon)
                                          .add(params)
                                          .key();
    EXPECT_NE(group, extraction);
}

TEST_F(ParallelSolverCacheTest, NearbyAplValuesAreSolvedApart)
{
    // Two apl values with one reciprocal, in one service batch: the
    // kernel must not group them and answer the second with the
    // first one's solution.
    WorkloadParams a = middleParams();
    a.apl = 7.692307692307693;
    WorkloadParams b = a;
    b.apl = std::nextafter(a.apl, 8.0);
    const service::ServiceKernel kernel;
    for (Scheme scheme : kAllSchemes) {
        SCOPED_TRACE(schemeName(scheme));
        const std::vector<service::Query> batch = {
            query(service::QueryDomain::Bus, scheme, 16, a),
            query(service::QueryDomain::Bus, scheme, 16, b),
        };
        std::vector<service::QueryResult> results(batch.size());
        kernel.evaluateBatch(batch.data(), batch.size(), results.data());
        expectIdentical(results[0].bus, evaluateBus(scheme, a, 16));
        expectIdentical(results[1].bus, evaluateBus(scheme, b, 16));
    }
}

} // namespace
} // namespace swcc
