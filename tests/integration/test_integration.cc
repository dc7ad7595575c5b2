/**
 * @file
 * End-to-end checks of the paper's headline evaluation claims
 * (Sections 5 and 6) against the full model stack.
 */

#include <gtest/gtest.h>

#include "core/swcc.hh"

namespace swcc
{
namespace
{

// ---------------------------------------------------------------------
// Figures 4-6: scheme comparison at low/medium/high ls+shd.
// ---------------------------------------------------------------------

TEST(Figure4Test, LowSharingMakesEverySchemeViable)
{
    // Paper: "At low values of ls and shd, Base, Dragon, and
    // Software-Flush perform well ... Even No-Cache performs well for
    // a moderate number of processors."
    const WorkloadParams params = sharingScenario(Level::Low);
    for (Scheme scheme : {Scheme::Base, Scheme::Dragon,
                          Scheme::SoftwareFlush}) {
        const BusSolution sol = evaluateBus(scheme, params, 8);
        EXPECT_GT(sol.processingPower, 6.0) << schemeName(scheme);
    }
    EXPECT_GT(evaluateBus(Scheme::NoCache, params, 4).processingPower,
              3.0);
}

TEST(Figure5Test, MediumSharingSeparatesTheSchemes)
{
    const WorkloadParams params = sharingScenario(Level::Middle);
    // Dragon performs very well even with 16 processors.
    const BusSolution dragon = evaluateBus(Scheme::Dragon, params, 16);
    EXPECT_GT(dragon.processingPower, 12.0);

    // No-Cache is acceptable only for a few processors; its bus
    // saturates well below 16 processors' worth of power.
    const BusSolution nocache =
        evaluateBus(Scheme::NoCache, params, 16);
    EXPECT_LT(nocache.processingPower, 8.0);

    // Software-Flush with medium apl does well to 8-10 processors,
    // then adding processors helps only slightly.
    const BusSolution swf8 =
        evaluateBus(Scheme::SoftwareFlush, params, 8);
    const BusSolution swf16 =
        evaluateBus(Scheme::SoftwareFlush, params, 16);
    EXPECT_GT(swf8.processingPower, 6.0);
    EXPECT_LT(swf16.processingPower - swf8.processingPower, 3.0);
}

TEST(Figure6Test, HighSharingSaturatesTheSoftwareSchemes)
{
    const WorkloadParams params = sharingScenario(Level::High);

    // Paper: No-Cache "saturates the bus with a processing power less
    // than 2".
    const double nocache_limit =
        busSaturationPower(perInstructionCost(
            operationFrequencies(Scheme::NoCache, params),
            BusCostModel()));
    EXPECT_LT(nocache_limit, 2.0);

    // Paper: Software-Flush "saturates the bus with processing power
    // less than 5" (medium apl).
    const double swf_limit =
        busSaturationPower(perInstructionCost(
            operationFrequencies(Scheme::SoftwareFlush, params),
            BusCostModel()));
    EXPECT_LT(swf_limit, 5.0);

    // Dragon still gives good performance.
    EXPECT_GT(evaluateBus(Scheme::Dragon, params, 16).processingPower,
              10.0);
}

// ---------------------------------------------------------------------
// Figure 7-9: the apl dependence of Software-Flush.
// ---------------------------------------------------------------------

TEST(Figure7Test, AplOneIsWorseThanNoCacheEverywhere)
{
    WorkloadParams params = middleParams();
    params.apl = 1.0;
    for (unsigned cpus : {2u, 4u, 8u, 16u}) {
        EXPECT_LT(
            evaluateBus(Scheme::SoftwareFlush, params, cpus)
                .processingPower,
            evaluateBus(Scheme::NoCache, params, cpus).processingPower)
            << cpus;
    }
}

TEST(Figure7Test, HugeAplWithCleanFlushesRivalsDragon)
{
    WorkloadParams params = middleParams();
    params.apl = 500.0;
    params.mdshd = 0.0;
    EXPECT_GT(
        evaluateBus(Scheme::SoftwareFlush, params, 16).processingPower,
        evaluateBus(Scheme::Dragon, params, 16).processingPower * 0.98);
}

TEST(Figure8Test, LowSharingSaturatesAplBenefitQuickly)
{
    // Paper: "With low sharing, performance is very sensitive to apl
    // at low values, but quickly reaches its maximum."
    WorkloadParams params = middleParams();
    setParam(params, ParamId::Shd,
             paramLevelValue(ParamId::Shd, Level::Low));

    auto power_at = [&params](double apl) {
        WorkloadParams p = params;
        p.apl = apl;
        return evaluateBus(Scheme::SoftwareFlush, p, 16)
            .processingPower;
    };
    const double gain_early = power_at(4.0) - power_at(1.0);
    const double gain_late = power_at(64.0) - power_at(16.0);
    EXPECT_GT(gain_early, 4.0 * gain_late);
    // By apl = 16 it is already within 10% of the apl = 256 ceiling.
    EXPECT_GT(power_at(16.0), 0.9 * power_at(256.0));
}

TEST(Figure9Test, MediumSharingStaysSensitiveToHighApl)
{
    // Paper: "With medium sharing levels, performance is sensitive to
    // variations in apl even at relatively high values."
    WorkloadParams params = middleParams();
    auto power_at = [&params](double apl) {
        WorkloadParams p = params;
        p.apl = apl;
        return evaluateBus(Scheme::SoftwareFlush, p, 16)
            .processingPower;
    };
    EXPECT_LT(power_at(16.0), 0.9 * power_at(256.0));
}

// ---------------------------------------------------------------------
// Figure 10: buses versus networks in the small scale.
// ---------------------------------------------------------------------

TEST(Figure10Test, NetworksOvertakeTheBusOnceItSaturates)
{
    const WorkloadParams params = middleParams();
    for (Scheme scheme : {Scheme::SoftwareFlush, Scheme::NoCache}) {
        const double bus32 =
            evaluateBus(scheme, params, 32).processingPower;
        const double net32 =
            evaluateNetwork(scheme, params, 5).processingPower;
        EXPECT_GT(net32, bus32) << schemeName(scheme);
    }
}

TEST(Figure10Test, BusWinsInTheVerySmallScale)
{
    // Network transactions pay the 2n path setup, so at 2 processors
    // the bus is the better medium.
    const WorkloadParams params = middleParams();
    for (Scheme scheme : {Scheme::Base, Scheme::SoftwareFlush,
                          Scheme::NoCache}) {
        const double bus2 =
            evaluateBus(scheme, params, 2).processingPower;
        const double net2 =
            evaluateNetwork(scheme, params, 1).processingPower;
        EXPECT_GT(bus2, net2) << schemeName(scheme);
    }
}

TEST(Figure10Test, SoftwareSchemesScaleOnTheNetwork)
{
    const WorkloadParams params = middleParams();
    for (Scheme scheme : {Scheme::SoftwareFlush, Scheme::NoCache}) {
        const auto curve = evaluateNetworkCurve(scheme, params, 8);
        // Power keeps growing through 256 processors...
        for (std::size_t i = 1; i < curve.size(); ++i) {
            EXPECT_GT(curve[i].processingPower,
                      curve[i - 1].processingPower)
                << schemeName(scheme);
        }
    }
    // ...while the bus versions flatline long before.
    const double bus_ceiling = busSaturationPower(perInstructionCost(
        operationFrequencies(Scheme::SoftwareFlush, params),
        BusCostModel()));
    const double net256 =
        evaluateNetwork(Scheme::SoftwareFlush, params, 8)
            .processingPower;
    EXPECT_GT(net256, 3.0 * bus_ceiling);
}

// ---------------------------------------------------------------------
// Figure 11: the 256-processor network operating points.
// ---------------------------------------------------------------------

TEST(Figure11Test, ReferenceRateMattersMoreThanMessageSize)
{
    // Paper: "In a circuit-switched network, a change in the reference
    // rate impacts system performance more than a proportional change
    // in the blocksize" — because of the fixed 2n path cost.
    const unsigned stages = 8;
    const double base_u = solveComputeFraction(0.01, 4.0 + 16.0, stages);
    const double double_rate =
        solveComputeFraction(0.02, 4.0 + 16.0, stages);
    const double double_size =
        solveComputeFraction(0.01, 8.0 + 16.0, stages);
    EXPECT_LT(double_rate, double_size);
    EXPECT_LT(double_size, base_u);
}

TEST(Figure11Test, ThreePercentMissRateHalvesUtilization)
{
    // Paper: "Even for a cache-miss rate as low as 3% in the
    // 256-processor system and a message size of 4 words ... the
    // processor utilization is halved."
    const double u = solveComputeFraction(0.03, 20.0, 8);
    EXPECT_LT(u, 0.60);
    EXPECT_GT(u, 0.30);
}

TEST(Figure11Test, SchemePointsFallIntoTwoPerformanceClasses)
{
    // Paper: Base (all ranges), Software-Flush (low/middle) and
    // No-Cache (low) are reasonable; the rest are much poorer.
    const unsigned stages = 8;
    auto utilization = [stages](Scheme scheme, Level level) {
        WorkloadParams params = paramsAtLevel(level);
        if (level == Level::High) {
            // nshd's high value only matters to Dragon; keep the rest.
            params.nshd = 1.0;
        }
        return evaluateNetwork(scheme, params, stages)
            .processorUtilization;
    };

    const double good_class = 0.35;
    EXPECT_GT(utilization(Scheme::Base, Level::Low), good_class);
    EXPECT_GT(utilization(Scheme::Base, Level::Middle), good_class);
    EXPECT_GT(utilization(Scheme::Base, Level::High), good_class);
    EXPECT_GT(utilization(Scheme::SoftwareFlush, Level::Low),
              good_class);
    EXPECT_GT(utilization(Scheme::SoftwareFlush, Level::Middle),
              good_class);
    EXPECT_GT(utilization(Scheme::NoCache, Level::Low), good_class);

    EXPECT_LT(utilization(Scheme::SoftwareFlush, Level::High),
              good_class);
    EXPECT_LT(utilization(Scheme::NoCache, Level::Middle), good_class);
    EXPECT_LT(utilization(Scheme::NoCache, Level::High), good_class);
}

} // namespace
} // namespace swcc
