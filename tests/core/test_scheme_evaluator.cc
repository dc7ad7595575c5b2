/**
 * @file
 * Unit tests for the high-level evaluation API and the paper's
 * scheme-ordering claims.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/scheme_evaluator.hh"

namespace swcc
{
namespace
{

TEST(EvaluateBusTest, BaseIsTheUpperBoundWheneverSharingExists)
{
    // Paper Section 5.1: "Base performs best as long as ls > 0".
    for (Level level : kAllLevels) {
        const WorkloadParams params = sharingScenario(level);
        const double base =
            evaluateBus(Scheme::Base, params, 8).processingPower;
        for (Scheme scheme : {Scheme::NoCache, Scheme::SoftwareFlush,
                              Scheme::Dragon}) {
            EXPECT_GE(base + 1e-9,
                      evaluateBus(scheme, params, 8).processingPower)
                << schemeName(scheme) << " at " << levelName(level);
        }
    }
}

TEST(EvaluateBusTest, DragonStaysCloseToBaseAtMediumWorkload)
{
    // Paper: "In most cases Dragon's performance is close to Base."
    const WorkloadParams params = middleParams();
    const double base =
        evaluateBus(Scheme::Base, params, 16).processingPower;
    const double dragon =
        evaluateBus(Scheme::Dragon, params, 16).processingPower;
    EXPECT_GT(dragon, 0.9 * base);
}

TEST(EvaluateBusTest, NoCacheIsMuchCostlierThanDragon)
{
    const WorkloadParams params = middleParams();
    const double dragon =
        evaluateBus(Scheme::Dragon, params, 16).processingPower;
    const double nocache =
        evaluateBus(Scheme::NoCache, params, 16).processingPower;
    EXPECT_LT(nocache, 0.6 * dragon);
}

TEST(EvaluateBusTest, SoftwareFlushSitsBetweenDragonAndNoCache)
{
    // Paper Section 5.1 with medium apl.
    const WorkloadParams params = middleParams();
    const double dragon =
        evaluateBus(Scheme::Dragon, params, 12).processingPower;
    const double swf =
        evaluateBus(Scheme::SoftwareFlush, params, 12).processingPower;
    const double nocache =
        evaluateBus(Scheme::NoCache, params, 12).processingPower;
    EXPECT_LT(swf, dragon);
    EXPECT_GT(swf, nocache);
}

TEST(EvaluateBusTest, SoftwareFlushBeatsNoCacheOnlyWithDecentApl)
{
    // Paper Figure 7: at apl = 1 Software-Flush is the worst scheme;
    // at high apl it can beat Dragon.
    WorkloadParams params = middleParams();

    params.apl = 1.0;
    const double swf_apl1 =
        evaluateBus(Scheme::SoftwareFlush, params, 8).processingPower;
    const double nocache =
        evaluateBus(Scheme::NoCache, params, 8).processingPower;
    EXPECT_LT(swf_apl1, nocache);

    params.apl = 1e6;
    params.mdshd = 0.0;
    const double swf_high =
        evaluateBus(Scheme::SoftwareFlush, params, 8).processingPower;
    const double dragon =
        evaluateBus(Scheme::Dragon, params, 8).processingPower;
    EXPECT_GT(swf_high, dragon);
}

TEST(EvaluateBusTest, SchemesCoincideWithoutDataReferences)
{
    // Paper: "If ls = 0 the schemes are identical."
    WorkloadParams params = middleParams();
    params.ls = 0.0;
    const double base =
        evaluateBus(Scheme::Base, params, 8).processingPower;
    for (Scheme scheme : kAllSchemes) {
        EXPECT_NEAR(evaluateBus(scheme, params, 8).processingPower, base,
                    1e-9)
            << schemeName(scheme);
    }
}

TEST(EvaluateBusTest, CustomCostModelIsHonoured)
{
    BusCostModel costs;
    costs.setCost(Operation::ReadThrough, {50.0, 49.0});
    const WorkloadParams params = middleParams();
    const double slow =
        evaluateBus(Scheme::NoCache, params, 4, costs).processingPower;
    const double normal =
        evaluateBus(Scheme::NoCache, params, 4).processingPower;
    EXPECT_LT(slow, normal);
}

TEST(EvaluateNetworkTest, DragonIsRejected)
{
    EXPECT_THROW(evaluateNetwork(Scheme::Dragon, middleParams(), 4),
                 std::invalid_argument);
}

TEST(EvaluateNetworkTest, SoftwareSchemesScaleWithProcessors)
{
    // Paper Section 6.3: both software schemes scale on the network.
    for (Scheme scheme : {Scheme::SoftwareFlush, Scheme::NoCache}) {
        double prev = 0.0;
        for (unsigned stages = 1; stages <= 8; ++stages) {
            const NetworkSolution sol =
                evaluateNetwork(scheme, middleParams(), stages);
            EXPECT_GT(sol.processingPower, prev) << schemeName(scheme);
            prev = sol.processingPower;
        }
    }
}

TEST(EvaluateNetworkTest, SoftwareFlushBeatsNoCacheOnTheNetwork)
{
    // Paper: Software-Flush is clearly more efficient because of its
    // lower request rate, despite longer messages.
    const NetworkSolution swf =
        evaluateNetwork(Scheme::SoftwareFlush, middleParams(), 8);
    const NetworkSolution nc =
        evaluateNetwork(Scheme::NoCache, middleParams(), 8);
    EXPECT_GT(swf.processingPower, nc.processingPower);
}

TEST(CurveTest, BusPowerCurveHasOnePointPerProcessorCount)
{
    const auto curve =
        evaluateBusCurve(Scheme::Dragon, middleParams(), 16);
    ASSERT_EQ(curve.size(), 16u);
    for (unsigned i = 0; i < curve.size(); ++i) {
        EXPECT_EQ(curve[i].processors, i + 1);
    }
}

TEST(CurveTest, NetworkPowerCurveDoublesProcessors)
{
    const auto curve =
        evaluateNetworkCurve(Scheme::Base, middleParams(), 6);
    ASSERT_EQ(curve.size(), 6u);
    for (unsigned i = 0; i < curve.size(); ++i) {
        EXPECT_EQ(curve[i].processors, 2u << i);
    }
}

TEST(CurveTest, NetworkPowerCurveRejectsSnoopySchemes)
{
    EXPECT_THROW(evaluateNetworkCurve(Scheme::Dragon, middleParams(), 4),
                 std::invalid_argument);
}

TEST(CurveTest, NetworkPowerCurveSolvesUpToTheServiceStageCap)
{
    // swccd admits networks of up to 24 stages (16M processors); every
    // point of such a curve must be a finite, consistent solution.
    const auto curve =
        evaluateNetworkCurve(Scheme::SoftwareFlush, middleParams(), 24);
    ASSERT_EQ(curve.size(), 24u);
    for (unsigned i = 0; i < curve.size(); ++i) {
        const NetworkSolution &sol = curve[i];
        EXPECT_EQ(sol.stages, i + 1);
        EXPECT_EQ(sol.processors, 2u << i);
        EXPECT_GT(sol.computeFraction, 0.0);
        EXPECT_LE(sol.computeFraction, 1.0);
        EXPECT_GE(sol.waiting, 0.0);
        EXPECT_TRUE(std::isfinite(sol.processingPower));
        EXPECT_GT(sol.processingPower, 0.0);
    }
}

} // namespace
} // namespace swcc
