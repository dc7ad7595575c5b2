/**
 * @file
 * Unit tests for the workload model (paper Tables 3-6) and the
 * invalidate-family table's explicit coherence factor.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/bus_model.hh"
#include "core/frequency_model.hh"
#include "core/per_instruction.hh"
#include "core/scheme_evaluator.hh"

namespace swcc
{
namespace
{

WorkloadParams
referenceParams()
{
    WorkloadParams p;
    p.ls = 0.3;
    p.msdat = 0.02;
    p.mains = 0.003;
    p.md = 0.25;
    p.shd = 0.2;
    p.wr = 0.3;
    p.apl = 8.0;
    p.mdshd = 0.4;
    p.oclean = 0.8;
    p.opres = 0.75;
    p.nshd = 2.0;
    return p;
}

TEST(BaseFrequenciesTest, MatchesTable3)
{
    const WorkloadParams p = referenceParams();
    const FrequencyVector f = operationFrequencies(Scheme::Base, p);

    const double miss = p.ls * p.msdat + p.mains; // 0.009
    EXPECT_DOUBLE_EQ(f.of(Operation::InstrExec), 1.0);
    EXPECT_DOUBLE_EQ(f.of(Operation::CleanMissMem), miss * (1 - p.md));
    EXPECT_DOUBLE_EQ(f.of(Operation::DirtyMissMem), miss * p.md);
    EXPECT_DOUBLE_EQ(f.of(Operation::ReadThrough), 0.0);
    EXPECT_DOUBLE_EQ(f.of(Operation::WriteBroadcast), 0.0);
    EXPECT_DOUBLE_EQ(f.of(Operation::CleanFlush), 0.0);
}

TEST(NoCacheFrequenciesTest, MatchesTable4)
{
    const WorkloadParams p = referenceParams();
    const FrequencyVector f = operationFrequencies(Scheme::NoCache, p);

    const double miss = p.ls * p.msdat * (1 - p.shd) + p.mains;
    EXPECT_DOUBLE_EQ(f.of(Operation::CleanMissMem), miss * (1 - p.md));
    EXPECT_DOUBLE_EQ(f.of(Operation::DirtyMissMem), miss * p.md);
    EXPECT_DOUBLE_EQ(f.of(Operation::ReadThrough),
                     p.ls * p.shd * (1 - p.wr));
    EXPECT_DOUBLE_EQ(f.of(Operation::WriteThrough), p.ls * p.shd * p.wr);
    EXPECT_DOUBLE_EQ(f.of(Operation::CleanFlush), 0.0);
    EXPECT_DOUBLE_EQ(f.of(Operation::WriteBroadcast), 0.0);
}

TEST(SoftwareFlushFrequenciesTest, MatchesTable5)
{
    const WorkloadParams p = referenceParams();
    const FrequencyVector f =
        operationFrequencies(Scheme::SoftwareFlush, p);

    const double flush = p.ls * p.shd / p.apl; // 0.0075
    EXPECT_DOUBLE_EQ(flushFrequency(p), flush);

    const double miss =
        p.ls * p.msdat * (1 - p.shd) + p.mains * (1 + flush);
    // Unshared misses plus one clean refetch miss per flush.
    EXPECT_DOUBLE_EQ(f.of(Operation::CleanMissMem),
                     miss * (1 - p.md) + flush);
    EXPECT_DOUBLE_EQ(f.of(Operation::DirtyMissMem), miss * p.md);
    EXPECT_DOUBLE_EQ(f.of(Operation::CleanFlush),
                     flush * (1 - p.mdshd));
    EXPECT_DOUBLE_EQ(f.of(Operation::DirtyFlush), flush * p.mdshd);
    EXPECT_DOUBLE_EQ(f.of(Operation::ReadThrough), 0.0);
}

TEST(SoftwareFlushFrequenciesTest, FlushCostVanishesAsAplGrows)
{
    WorkloadParams p = referenceParams();
    p.apl = 1e9;
    const FrequencyVector sf =
        operationFrequencies(Scheme::SoftwareFlush, p);
    const FrequencyVector base = operationFrequencies(Scheme::Base, p);

    EXPECT_NEAR(sf.of(Operation::CleanFlush), 0.0, 1e-9);
    EXPECT_NEAR(sf.of(Operation::DirtyFlush), 0.0, 1e-9);
    // Only the unshared-miss split differs from Base in the limit; the
    // totals converge except for the shd factor on msdat.
    EXPECT_NEAR(sf.of(Operation::CleanMissMem),
                base.of(Operation::CleanMissMem) -
                    p.ls * p.msdat * p.shd * (1 - p.md),
                1e-9);
}

TEST(SoftwareFlushFrequenciesTest, AplOfOneFlushesEveryReference)
{
    WorkloadParams p = referenceParams();
    p.apl = 1.0;
    const FrequencyVector f =
        operationFrequencies(Scheme::SoftwareFlush, p);
    const double flush = p.ls * p.shd;
    EXPECT_DOUBLE_EQ(f.of(Operation::CleanFlush) +
                         f.of(Operation::DirtyFlush),
                     flush);
}

TEST(DragonFrequenciesTest, MatchesTable6)
{
    const WorkloadParams p = referenceParams();
    const FrequencyVector f = operationFrequencies(Scheme::Dragon, p);

    const double from_cache = p.shd * (1 - p.oclean);
    const double mem_miss = p.ls * p.msdat * (1 - from_cache) + p.mains;
    const double cache_miss = p.ls * p.msdat * from_cache;
    const double broadcast = p.ls * p.shd * p.wr * p.opres;

    EXPECT_DOUBLE_EQ(f.of(Operation::CleanMissMem),
                     mem_miss * (1 - p.md));
    EXPECT_DOUBLE_EQ(f.of(Operation::DirtyMissMem), mem_miss * p.md);
    EXPECT_DOUBLE_EQ(f.of(Operation::CleanMissCache),
                     cache_miss * (1 - p.md));
    EXPECT_DOUBLE_EQ(f.of(Operation::DirtyMissCache), cache_miss * p.md);
    EXPECT_DOUBLE_EQ(f.of(Operation::WriteBroadcast), broadcast);
    EXPECT_DOUBLE_EQ(f.of(Operation::CycleSteal), broadcast * p.nshd);
}

TEST(DragonFrequenciesTest, TotalMissesMatchBase)
{
    // Dragon redirects misses between memory and caches but the total
    // miss rate is the Base rate.
    const WorkloadParams p = referenceParams();
    const FrequencyVector dragon =
        operationFrequencies(Scheme::Dragon, p);
    const FrequencyVector base = operationFrequencies(Scheme::Base, p);
    EXPECT_NEAR(dragon.totalMisses(), base.totalMisses(), 1e-12);
}

TEST(FrequencyVectorTest, HelpersSumTheRightOperations)
{
    FrequencyVector f;
    f.set(Operation::CleanMissMem, 0.1);
    f.set(Operation::DirtyMissCache, 0.2);
    f.set(Operation::WriteThrough, 0.3);
    f.set(Operation::CycleSteal, 5.0);
    f.set(Operation::InstrExec, 1.0);
    EXPECT_DOUBLE_EQ(f.totalMisses(), 0.3);
    // Channel operations exclude instruction execution and stealing.
    EXPECT_DOUBLE_EQ(f.totalChannelOperations(), 0.6);
    f.add(Operation::CleanMissMem, 0.05);
    EXPECT_DOUBLE_EQ(f.of(Operation::CleanMissMem), 0.15);
}

TEST(FrequencyModelTest, RejectsInvalidParams)
{
    WorkloadParams p = referenceParams();
    p.shd = 1.5;
    EXPECT_THROW(operationFrequencies(Scheme::Base, p),
                 std::invalid_argument);
}

TEST(InvalidateFrequenciesTest, RejectsRerefOutsideTheUnitInterval)
{
    const WorkloadParams p = referenceParams();
    EXPECT_THROW(invalidateFrequencies(p, -0.1), std::invalid_argument);
    EXPECT_THROW(invalidateFrequencies(p, 1.1), std::invalid_argument);
    EXPECT_NO_THROW(invalidateFrequencies(p, 0.0));
    EXPECT_NO_THROW(invalidateFrequencies(p, 1.0));

    WorkloadParams bad = p;
    bad.shd = 1.5;
    EXPECT_THROW(invalidateFrequencies(bad, 0.5), std::invalid_argument);
}

TEST(InvalidateFrequenciesTest, FirstWriteFractionIsOnePerWriteRun)
{
    WorkloadParams p = referenceParams();
    p.wr = 0.25;
    p.apl = 8.0;
    EXPECT_NEAR(firstWriteFraction(p), 1.0 / 2.0, 1e-12);
    // A run holding at most one write always invalidates.
    p.apl = 2.0;
    EXPECT_DOUBLE_EQ(firstWriteFraction(p), 1.0);
}

TEST(InvalidateFrequenciesTest, FrequenciesDecompose)
{
    WorkloadParams p = referenceParams();
    p.wr = 0.25;
    p.apl = 8.0; // Two writes per run: half the writes invalidate.
    const FrequencyVector f = invalidateFrequencies(p, 0.4);

    const double inval = p.ls * p.shd * p.wr * p.opres * 0.5;
    EXPECT_DOUBLE_EQ(f.of(Operation::WriteBroadcast), inval);
    EXPECT_DOUBLE_EQ(f.of(Operation::CycleSteal), inval * p.nshd);
    const double coherence = inval * p.nshd * 0.4;
    EXPECT_NEAR(f.totalMisses(),
                p.ls * p.msdat + p.mains + coherence, 1e-12);
}

TEST(InvalidateFrequenciesTest, OpresRerefIsTheMesiTable)
{
    for (Level level : kAllLevels) {
        const WorkloadParams p = paramsAtLevel(level);
        const FrequencyVector mesi = operationFrequencies(Scheme::Mesi, p);
        const FrequencyVector table = invalidateFrequencies(p, p.opres);
        for (Operation op : kAllOperations) {
            EXPECT_EQ(table.of(op), mesi.of(op)) << operationName(op);
        }
    }
}

TEST(InvalidateFrequenciesTest, TradeoffFollowsRunLength)
{
    const auto inval_power = [](const WorkloadParams &p, double reref) {
        return solveBus(perInstructionCost(invalidateFrequencies(p, reref),
                                           BusCostModel()),
                        16)
            .processingPower;
    };
    // Short write runs (ping-pong) whose victims always come back:
    // Dragon's cheap updates win.
    WorkloadParams ping = middleParams();
    ping.apl = 2.0;
    EXPECT_GT(evaluateBus(Scheme::Dragon, ping, 16).processingPower,
              inval_power(ping, 1.0));

    // Long runs with rare re-reads: invalidation wins.
    WorkloadParams runs = middleParams();
    runs.apl = 64.0;
    runs.wr = 0.4;
    EXPECT_LT(evaluateBus(Scheme::Dragon, runs, 16).processingPower,
              inval_power(runs, 0.2));
}

/** Property sweep: frequencies stay sane over the Table 7 grid. */
class FrequencyGridTest
    : public ::testing::TestWithParam<std::tuple<Scheme, Level, Level>>
{
};

TEST_P(FrequencyGridTest, FrequenciesAreNonNegativeAndBounded)
{
    const auto [scheme, miss_level, share_level] = GetParam();
    WorkloadParams p = middleParams();
    setParam(p, ParamId::Msdat,
             paramLevelValue(ParamId::Msdat, miss_level));
    setParam(p, ParamId::Shd, paramLevelValue(ParamId::Shd, share_level));
    setParam(p, ParamId::InvApl,
             paramLevelValue(ParamId::InvApl, share_level));

    const FrequencyVector f = operationFrequencies(scheme, p);
    for (Operation op : kAllOperations) {
        EXPECT_GE(f.of(op), 0.0) << operationName(op);
        EXPECT_LE(f.of(op), 8.0) << operationName(op);
    }
    EXPECT_DOUBLE_EQ(f.of(Operation::InstrExec), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FrequencyGridTest,
    ::testing::Combine(
        ::testing::ValuesIn(kAllSchemes),
        ::testing::Values(Level::Low, Level::Middle, Level::High),
        ::testing::Values(Level::Low, Level::Middle, Level::High)));

} // namespace
} // namespace swcc
