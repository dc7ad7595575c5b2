/**
 * @file
 * Cross-cutting property tests of the analytical model: monotonicity
 * and scaling laws that must hold across the whole Table 7 parameter
 * space, for every scheme.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/scheme_evaluator.hh"

namespace swcc
{
namespace
{

double
power(Scheme scheme, const WorkloadParams &params, unsigned cpus = 16)
{
    return evaluateBus(scheme, params, cpus).processingPower;
}

/**
 * Direction of a parameter's effect: increasing any pure-cost
 * parameter can never *increase* processing power, for any scheme it
 * affects. (wr is excluded: it trades read-throughs for cheaper
 * write-throughs in No-Cache.)
 */
class CostMonotonicityTest
    : public ::testing::TestWithParam<std::tuple<Scheme, ParamId>>
{
};

TEST_P(CostMonotonicityTest, MorePressureNeverHelps)
{
    const auto [scheme, param] = GetParam();
    WorkloadParams params = middleParams();
    setParam(params, param, paramLevelValue(param, Level::Low));

    double previous = power(scheme, params);
    for (double fraction : {0.25, 0.5, 0.75, 1.0}) {
        const double low = paramLevelValue(param, Level::Low);
        const double high = paramLevelValue(param, Level::High);
        setParam(params, param, low + fraction * (high - low));
        const double current = power(scheme, params);
        EXPECT_LE(current, previous + 1e-9)
            << schemeName(scheme) << " " << paramName(param) << " at "
            << fraction;
        previous = current;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchemeParams, CostMonotonicityTest,
    ::testing::Values(
        std::tuple{Scheme::Base, ParamId::Msdat},
        std::tuple{Scheme::Base, ParamId::Mains},
        std::tuple{Scheme::Base, ParamId::Md},
        std::tuple{Scheme::Base, ParamId::Ls},
        std::tuple{Scheme::NoCache, ParamId::Msdat},
        std::tuple{Scheme::NoCache, ParamId::Shd},
        std::tuple{Scheme::NoCache, ParamId::Ls},
        std::tuple{Scheme::SoftwareFlush, ParamId::Msdat},
        std::tuple{Scheme::SoftwareFlush, ParamId::Shd},
        std::tuple{Scheme::SoftwareFlush, ParamId::InvApl},
        std::tuple{Scheme::SoftwareFlush, ParamId::Mdshd},
        std::tuple{Scheme::SoftwareFlush, ParamId::Ls},
        std::tuple{Scheme::Dragon, ParamId::Msdat},
        std::tuple{Scheme::Dragon, ParamId::Shd},
        std::tuple{Scheme::Dragon, ParamId::Nshd},
        std::tuple{Scheme::Dragon, ParamId::Opres},
        std::tuple{Scheme::Mesi, ParamId::Msdat},
        std::tuple{Scheme::Mesi, ParamId::Shd},
        std::tuple{Scheme::Mesi, ParamId::Opres},
        std::tuple{Scheme::Mesi, ParamId::Nshd},
        std::tuple{Scheme::Mesi, ParamId::InvApl},
        std::tuple{Scheme::Mesif, ParamId::Msdat},
        std::tuple{Scheme::Mesif, ParamId::Shd},
        std::tuple{Scheme::Moesi, ParamId::Msdat},
        std::tuple{Scheme::Moesi, ParamId::Nshd},
        std::tuple{Scheme::Hybrid, ParamId::Msdat},
        std::tuple{Scheme::Hybrid, ParamId::Shd}));

/** Base dominates every scheme at every Table 7 corner. */
class DominanceTest : public ::testing::TestWithParam<Level>
{
};

TEST_P(DominanceTest, BaseIsAnUpperBoundEverywhere)
{
    const WorkloadParams params = paramsAtLevel(GetParam());
    const double base = power(Scheme::Base, params);
    for (Scheme scheme : {Scheme::NoCache, Scheme::SoftwareFlush,
                          Scheme::Dragon, Scheme::Mesi, Scheme::Mesif,
                          Scheme::Moesi, Scheme::Hybrid}) {
        EXPECT_LE(power(scheme, params), base + 1e-9)
            << schemeName(scheme) << " at " << levelName(GetParam());
    }
}

TEST_P(DominanceTest, MesifForwarderNeverHurts)
{
    // The forwarder only converts memory-supplied misses into cheaper
    // cache-supplied ones, so MESIF weakly dominates MESI.
    const WorkloadParams params = paramsAtLevel(GetParam());
    EXPECT_GE(power(Scheme::Mesif, params),
              power(Scheme::Mesi, params) - 1e-9)
        << levelName(GetParam());
}

TEST_P(DominanceTest, MoesiDeferredWritebacksNeverHelp)
{
    // Under the Table 1 costs the Illinois owner supply updates memory
    // for free, so deferring the write-back (raising the dirty-victim
    // fraction) can only cost; MESI weakly dominates MOESI.
    const WorkloadParams params = paramsAtLevel(GetParam());
    EXPECT_LE(power(Scheme::Moesi, params),
              power(Scheme::Mesi, params) + 1e-9)
        << levelName(GetParam());
}

TEST_P(DominanceTest, HybridMatchesOnePurePolicy)
{
    // The hybrid table is, by construction, exactly the cheaper of the
    // Dragon and MESI tables — never a third thing.
    const WorkloadParams params = paramsAtLevel(GetParam());
    const FrequencyVector hybrid =
        operationFrequencies(Scheme::Hybrid, params);
    const FrequencyVector dragon =
        operationFrequencies(Scheme::Dragon, params);
    const FrequencyVector mesi =
        operationFrequencies(Scheme::Mesi, params);
    bool is_dragon = true;
    bool is_mesi = true;
    for (Operation op : kAllOperations) {
        is_dragon = is_dragon && hybrid.of(op) == dragon.of(op);
        is_mesi = is_mesi && hybrid.of(op) == mesi.of(op);
    }
    EXPECT_TRUE(is_dragon || is_mesi) << levelName(GetParam());
}

TEST_P(DominanceTest, BusAndNetworkAgreeOnSchemeOrdering)
{
    // At 256 processors the software-scheme ranking (Base >= SF >=
    // NoCache at a medium apl) holds on both media. At apl = 1
    // Software-Flush legitimately falls below No-Cache (paper Fig. 7),
    // so apl stays pinned at its middle value here.
    WorkloadParams params = paramsAtLevel(GetParam());
    setParam(params, ParamId::InvApl,
             paramLevelValue(ParamId::InvApl, Level::Middle));
    params.nshd = 1.0; // High nshd only affects Dragon, not used here.
    const auto net = [&params](Scheme scheme) {
        return evaluateNetwork(scheme, params, 8).processingPower;
    };
    EXPECT_GE(net(Scheme::Base), net(Scheme::SoftwareFlush) - 1e-9);
    EXPECT_GE(net(Scheme::SoftwareFlush), net(Scheme::NoCache) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Levels, DominanceTest,
                         ::testing::ValuesIn(kAllLevels));

TEST(HybridPolicyTest, CrossoverFollowsRunLength)
{
    // Short runs (apl small): almost every shared write opens a run,
    // invalidation buys nothing and costs coherence misses, so the
    // hybrid keeps the Dragon table. Long runs: one invalidation
    // amortizes over many now-free writes and the MESI table wins.
    const auto matches = [](double apl, Scheme pure) {
        WorkloadParams params = middleParams();
        params.apl = apl;
        const FrequencyVector hybrid =
            operationFrequencies(Scheme::Hybrid, params);
        const FrequencyVector expected =
            operationFrequencies(pure, params);
        for (Operation op : kAllOperations) {
            if (hybrid.of(op) != expected.of(op)) {
                return false;
            }
        }
        return true;
    };
    EXPECT_TRUE(matches(1.0, Scheme::Dragon));
    EXPECT_TRUE(matches(4.0, Scheme::Dragon));
    EXPECT_TRUE(matches(16.0, Scheme::Mesi));
    EXPECT_TRUE(matches(64.0, Scheme::Mesi));
}

TEST(InvalidateFamilyModelTest, SchemesCollapseToBaseWithoutSharing)
{
    // With shd = 0 no invalidations, coherence misses, or forwarder
    // supplies exist; every family member prices exactly like Base,
    // whatever fraction of destroyed copies the MESI table is told
    // comes back.
    WorkloadParams params = middleParams();
    params.shd = 0.0;
    const double base = power(Scheme::Base, params);
    for (Scheme scheme : {Scheme::Mesi, Scheme::Mesif, Scheme::Moesi,
                          Scheme::Hybrid}) {
        EXPECT_NEAR(power(scheme, params), base, 1e-9)
            << schemeName(scheme);
    }
    for (double reref : {0.0, 0.5, 1.0}) {
        const BusSolution invalidate = solveBus(
            perInstructionCost(invalidateFrequencies(params, reref),
                               BusCostModel()),
            16);
        EXPECT_NEAR(invalidate.processingPower, base, 1e-9)
            << "reref " << reref;
    }
}

TEST(InvalidateFamilyModelTest, FirstWriteFractionShapesInvalidations)
{
    // Table check: invalidations fire once per write run —
    // ls*shd*wr*opres/(wr*apl) of instructions when runs hold more
    // than one write — and each steals nshd snoop cycles.
    WorkloadParams p = middleParams();
    p.apl = 32.0;
    const FrequencyVector f = operationFrequencies(Scheme::Mesi, p);
    const double inval =
        p.ls * p.shd * p.wr * p.opres / (p.wr * p.apl);
    EXPECT_NEAR(f.of(Operation::WriteBroadcast), inval, 1e-12);
    EXPECT_NEAR(f.of(Operation::CycleSteal), inval * p.nshd, 1e-12);
    // Coherence misses land in the cache-supplied miss classes on top
    // of the Dragon-style shared-miss split.
    const double coherence = inval * p.nshd * p.opres;
    const double from_cache = p.shd * (1.0 - p.oclean);
    EXPECT_NEAR(f.totalMisses(),
                p.ls * p.msdat + p.mains + coherence, 1e-12);
    EXPECT_NEAR(f.of(Operation::CleanMissCache) +
                    f.of(Operation::DirtyMissCache),
                p.ls * p.msdat * from_cache + coherence, 1e-12);
}

TEST(ScalingTest, PowerPerProcessorNeverImproves)
{
    // Marginal utility of processors is non-increasing on a bus.
    const WorkloadParams params = middleParams();
    for (Scheme scheme : kAllSchemes) {
        double prev_util = 1.0;
        for (unsigned n = 1; n <= 32; n *= 2) {
            const double util =
                evaluateBus(scheme, params, n).processorUtilization;
            EXPECT_LE(util, prev_util + 1e-12) << schemeName(scheme);
            prev_util = util;
        }
    }
}

TEST(ScalingTest, FrequenciesAreLinearInLsAtFixedMix)
{
    // Every ls-proportional term doubles when ls doubles (Base has
    // only the data-miss term plus the constant mains).
    WorkloadParams params = middleParams();
    params.ls = 0.15;
    const FrequencyVector f1 =
        operationFrequencies(Scheme::NoCache, params);
    params.ls = 0.30;
    const FrequencyVector f2 =
        operationFrequencies(Scheme::NoCache, params);
    EXPECT_NEAR(f2.of(Operation::ReadThrough),
                2.0 * f1.of(Operation::ReadThrough), 1e-12);
    EXPECT_NEAR(f2.of(Operation::WriteThrough),
                2.0 * f1.of(Operation::WriteThrough), 1e-12);
}

TEST(ScalingTest, ExecutionTimeDecomposesAsCpuPlusWaiting)
{
    for (Scheme scheme : kAllSchemes) {
        for (Level level : kAllLevels) {
            const BusSolution sol =
                evaluateBus(scheme, paramsAtLevel(level), 12);
            EXPECT_NEAR(1.0 / sol.processorUtilization,
                        sol.cpu + sol.waiting, 1e-9)
                << schemeName(scheme);
            EXPECT_NEAR(sol.processingPower,
                        12.0 * sol.processorUtilization, 1e-9);
        }
    }
}

TEST(ConsistencyTest, SaturationBoundsAreNeverViolatedOnTheGrid)
{
    for (Scheme scheme : kAllSchemes) {
        for (Level level : kAllLevels) {
            const WorkloadParams params = paramsAtLevel(level);
            const PerInstructionCost cost = perInstructionCost(
                operationFrequencies(scheme, params), BusCostModel());
            for (unsigned n : {1u, 4u, 16u, 64u}) {
                const double p = power(scheme, params, n);
                EXPECT_LE(p, busSaturationPower(cost) + 1e-9)
                    << schemeName(scheme);
                EXPECT_LE(p, n / cost.cpu + 1e-9) << schemeName(scheme);
            }
        }
    }
}

} // namespace
} // namespace swcc
