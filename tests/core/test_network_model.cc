/**
 * @file
 * Unit tests for the Patel multistage-network contention model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/network_model.hh"

namespace swcc
{
namespace
{

PerInstructionCost
cost(double cpu, double net)
{
    PerInstructionCost c;
    c.cpu = cpu;
    c.channel = net;
    return c;
}

TEST(PatelRecursionTest, StageStepMatchesClosedForm)
{
    // m' = 1 - (1 - m/2)^2 = m - m^2/4.
    for (double m : {0.0, 0.1, 0.5, 0.9, 1.0}) {
        EXPECT_NEAR(patelStageStep(m), m - m * m / 4.0, 1e-12);
    }
}

TEST(PatelRecursionTest, LoadNeverIncreasesThroughAStage)
{
    for (double m = 0.0; m <= 1.0; m += 0.05) {
        const double out = patelStageStep(m);
        EXPECT_LE(out, m + 1e-12);
        EXPECT_GE(out, 0.0);
    }
}

TEST(PatelRecursionTest, StageLoadsAreMonotoneDecreasing)
{
    const std::vector<double> loads = patelStageLoads(0.8, 8);
    ASSERT_EQ(loads.size(), 9u);
    EXPECT_DOUBLE_EQ(loads.front(), 0.8);
    for (std::size_t i = 1; i < loads.size(); ++i) {
        EXPECT_LT(loads[i], loads[i - 1]);
    }
}

TEST(PatelRecursionTest, OutputMatchesIteratedStep)
{
    double m = 0.6;
    for (int i = 0; i < 5; ++i) {
        m = patelStageStep(m);
    }
    EXPECT_NEAR(patelNetworkOutput(0.6, 5), m, 1e-12);
}

TEST(FixedPointTest, LowLoadApproachesOneOverOnePlusDemand)
{
    // With negligible blocking, U -> 1/(1 + m*t).
    const double u = solveComputeFraction(0.0001, 10.0, 4);
    EXPECT_NEAR(u, 1.0 / 1.001, 1e-3);
}

TEST(FixedPointTest, NeverExceedsTheBlockingFreeBound)
{
    for (double rate : {0.01, 0.05, 0.2}) {
        for (double size : {2.0, 10.0, 24.0}) {
            const double u = solveComputeFraction(rate, size, 6);
            EXPECT_LE(u, 1.0 / (1.0 + rate * size) + 1e-9);
            EXPECT_GT(u, 0.0);
        }
    }
}

TEST(FixedPointTest, UtilizationFallsWithLoadAndStages)
{
    double prev = 1.0;
    for (double rate : {0.01, 0.02, 0.04, 0.08}) {
        const double u = solveComputeFraction(rate, 12.0, 6);
        EXPECT_LT(u, prev);
        prev = u;
    }
    prev = 1.0;
    for (unsigned stages : {2u, 4u, 6u, 8u}) {
        const double u = solveComputeFraction(0.04, 12.0, stages);
        EXPECT_LT(u, prev);
        prev = u;
    }
}

TEST(FixedPointTest, SolvesTheFixedPointEquation)
{
    const double rate = 0.03;
    const double size = 14.0;
    const unsigned stages = 8;
    const double u = solveComputeFraction(rate, size, stages);
    EXPECT_NEAR(u, patelNetworkOutput(1.0 - u, stages) / (rate * size),
                1e-9);
}

TEST(FixedPointTest, RejectsBadArguments)
{
    EXPECT_THROW(solveComputeFraction(0.0, 1.0, 4),
                 std::invalid_argument);
    EXPECT_THROW(solveComputeFraction(0.1, 0.0, 4),
                 std::invalid_argument);
    EXPECT_THROW(solveComputeFraction(0.1, 1.0, 0),
                 std::invalid_argument);
}

TEST(FixedPointTest, ExtremeDemandsConvergeInsideTheBound)
{
    // Tiny demand drives U against the top of the bracket, huge demand
    // against the bottom; the bisection must still land strictly inside
    // (0, 1] and under the blocking-free bound at every stage count the
    // service admits.
    for (double rate : {1e-12, 1e-6, 0.02, 0.5, 1.0, 1e6}) {
        for (double size : {1e-9, 1.0, 12.0, 1e9}) {
            for (unsigned stages : {1u, 6u, 12u, 24u}) {
                const double u = solveComputeFraction(rate, size, stages);
                EXPECT_TRUE(std::isfinite(u));
                EXPECT_GT(u, 0.0);
                EXPECT_LE(u, 1.0);
                EXPECT_LE(u, 1.0 / (1.0 + rate * size) + 1e-12)
                    << "rate " << rate << " size " << size << " stages "
                    << stages;
            }
        }
    }
}

TEST(NetworkSolutionTest, NoTrafficDegeneratesToPureCpu)
{
    const NetworkSolution sol = solveNetwork(cost(1.4, 0.0), 5);
    EXPECT_DOUBLE_EQ(sol.computeFraction, 1.0);
    EXPECT_DOUBLE_EQ(sol.cyclesPerInstruction, 1.4);
    EXPECT_DOUBLE_EQ(sol.waiting, 0.0);
    EXPECT_EQ(sol.processors, 32u);
    EXPECT_NEAR(sol.processingPower, 32.0 / 1.4, 1e-12);
}

TEST(NetworkSolutionTest, LightTrafficCostsAlmostNothing)
{
    // b = 0.01 cycles/instruction on a small network.
    const NetworkSolution sol = solveNetwork(cost(1.2, 0.01), 3);
    EXPECT_NEAR(sol.cyclesPerInstruction, 1.2, 0.01);
    EXPECT_GE(sol.cyclesPerInstruction, 1.2 - 1e-9);
}

TEST(NetworkSolutionTest, WaitingIsNonNegative)
{
    for (double net : {0.05, 0.2, 0.5, 1.0}) {
        const NetworkSolution sol = solveNetwork(cost(2.0, net), 8);
        EXPECT_GE(sol.waiting, -1e-9) << "b=" << net;
        EXPECT_LE(sol.processorUtilization, 1.0 / 2.0);
    }
}

TEST(NetworkSolutionTest, DerivedQuantitiesAreConsistent)
{
    const NetworkSolution sol = solveNetwork(cost(2.5, 0.4), 6);
    EXPECT_NEAR(sol.transactionRate, 1.0 / 2.1, 1e-12);
    EXPECT_NEAR(sol.unitRequestRate, sol.transactionRate * 0.4, 1e-12);
    EXPECT_NEAR(sol.inputLoad, 1.0 - sol.computeFraction, 1e-12);
    EXPECT_NEAR(sol.cyclesPerInstruction,
                2.1 / sol.computeFraction, 1e-9);
    EXPECT_NEAR(sol.processingPower,
                64.0 * sol.processorUtilization, 1e-12);
    EXPECT_GT(sol.acceptance, 0.0);
    EXPECT_LE(sol.acceptance, 1.0);
}

TEST(NetworkSolutionTest, RejectsBadArguments)
{
    EXPECT_THROW(solveNetwork(cost(1.0, 1.0), 4), std::invalid_argument);
    EXPECT_THROW(solveNetwork(cost(2.0, 0.4), 0), std::invalid_argument);
}

TEST(KbyKSwitchTest, KTwoMatchesTheBaseRecursion)
{
    for (double m : {0.1, 0.5, 0.9}) {
        EXPECT_NEAR(patelStageStepK(m, 2), patelStageStep(m), 1e-12);
    }
    EXPECT_NEAR(solveComputeFractionK(0.03, 14.0, 8, 2),
                solveComputeFraction(0.03, 14.0, 8), 1e-9);
}

TEST(KbyKSwitchTest, PerStageThroughputConvergesFromAbove)
{
    // Per stage, a wider crossbar passes slightly *less* (more inputs
    // compete for each output): m' falls with k toward the Poisson
    // limit 1 - e^-m. The whole-network win comes from needing
    // log_k(N) instead of log_2(N) stages.
    for (double m : {0.2, 0.5, 0.8}) {
        double prev = 1.0;
        for (unsigned k : {2u, 4u, 8u, 16u}) {
            const double out = patelStageStepK(m, k);
            EXPECT_LT(out, prev) << "m=" << m << " k=" << k;
            EXPECT_GT(out, 1.0 - std::exp(-m)) << "m=" << m;
            EXPECT_LE(out, m + 1e-12);
            prev = out;
        }
    }
}

TEST(KbyKSwitchTest, SameMachineFewerStagesMoreUtilization)
{
    // 256 processors as 8 stages of 2x2 or 4 stages of 4x4: the wider
    // switches give a better compute fraction at equal load.
    const double u2 = solveComputeFractionK(0.03, 20.0, 8, 2);
    const double u4 = solveComputeFractionK(0.03, 20.0, 4, 4);
    EXPECT_GT(u4, u2);
}

TEST(KbyKSwitchTest, StageCounts)
{
    EXPECT_EQ(stagesForProcessorsK(256, 2), 8u);
    EXPECT_EQ(stagesForProcessorsK(256, 4), 4u);
    EXPECT_EQ(stagesForProcessorsK(256, 16), 2u);
    EXPECT_EQ(stagesForProcessorsK(257, 4), 5u);
    EXPECT_EQ(stagesForProcessorsK(1, 4), 1u);
}

TEST(KbyKSwitchTest, RejectsBadDimensions)
{
    EXPECT_THROW(patelStageStepK(0.5, 1), std::invalid_argument);
    EXPECT_THROW(solveComputeFractionK(0.03, 10.0, 4, 1),
                 std::invalid_argument);
    EXPECT_THROW(stagesForProcessorsK(16, 0), std::invalid_argument);
}

TEST(StagesForProcessorsTest, CeilLog2WithMinimumOne)
{
    EXPECT_EQ(stagesForProcessors(1), 1u);
    EXPECT_EQ(stagesForProcessors(2), 1u);
    EXPECT_EQ(stagesForProcessors(3), 2u);
    EXPECT_EQ(stagesForProcessors(4), 2u);
    EXPECT_EQ(stagesForProcessors(5), 3u);
    EXPECT_EQ(stagesForProcessors(256), 8u);
    EXPECT_EQ(stagesForProcessors(257), 9u);
}

} // namespace
} // namespace swcc
