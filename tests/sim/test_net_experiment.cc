/**
 * @file
 * Integration tests: the Patel model against the omega simulator
 * (the paper's stated future-work validation).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/net/net_experiment.hh"

namespace swcc
{
namespace
{

TEST(NetValidationTest, UnitRequestModeMatchesTheModelAtLightLoad)
{
    const NetworkValidationPoint point = validateNetworkPoint(
        0.01, 12.0, 4, NetMode::UnitRequest, 150'000, 7);
    EXPECT_LT(std::abs(point.computeErrorPercent()), 5.0)
        << "sim=" << point.simCompute << " model=" << point.modelCompute;
}

TEST(NetValidationTest, CircuitModeMatchesTheModelClosely)
{
    // Patel's unit-request approximation was designed to predict
    // circuit-switched behaviour; our simulator confirms it.
    for (double rate : {0.01, 0.03, 0.05}) {
        const NetworkValidationPoint point = validateNetworkPoint(
            rate, 12.0, 4, NetMode::Circuit, 150'000, 7);
        EXPECT_LT(std::abs(point.computeErrorPercent()), 5.0)
            << "rate=" << rate;
    }
}

TEST(NetValidationTest, ErrorsStayModerateIntoHeavyLoad)
{
    const NetworkValidationPoint point = validateNetworkPoint(
        0.08, 12.0, 4, NetMode::UnitRequest, 150'000, 7);
    EXPECT_LT(std::abs(point.computeErrorPercent()), 20.0);
}

TEST(NetValidationTest, StageLoadRecursionMatchesSimulation)
{
    const NetworkValidationPoint point = validateNetworkPoint(
        0.04, 12.0, 6, NetMode::UnitRequest, 150'000, 11);
    ASSERT_EQ(point.simStageLoads.size(), 7u);
    ASSERT_EQ(point.modelStageLoads.size(), 7u);
    // Seeded with the simulator's own m_0, the recursion should track
    // each stage within a few percent of the port load.
    for (std::size_t i = 0; i < point.simStageLoads.size(); ++i) {
        EXPECT_NEAR(point.modelStageLoads[i], point.simStageLoads[i],
                    0.05)
            << "stage " << i;
    }
}

TEST(NetValidationTest, SweepCoversAllRates)
{
    const auto points = networkValidationSweep(
        {0.01, 0.02, 0.04}, 10.0, 3, NetMode::UnitRequest, 30'000, 3);
    ASSERT_EQ(points.size(), 3u);
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_LT(points[i].simCompute, points[i - 1].simCompute);
        EXPECT_LT(points[i].modelCompute, points[i - 1].modelCompute);
    }
}

TEST(NetValidationTest, KaryModelMatchesKarySimulation)
{
    // 64 processors as 3 stages of 4x4 switches, circuit mode.
    for (double rate : {0.02, 0.05}) {
        const NetworkValidationPoint point = validateNetworkPoint(
            rate, 10.0, 3, NetMode::Circuit, 120'000, 19, 4);
        EXPECT_LT(std::abs(point.computeErrorPercent()), 6.0)
            << "rate=" << rate << " sim=" << point.simCompute
            << " model=" << point.modelCompute;
    }
}

TEST(NetValidationTest, RejectsNonPositiveRate)
{
    EXPECT_THROW(
        validateNetworkPoint(0.0, 8.0, 4, NetMode::UnitRequest, 1'000),
        std::invalid_argument);
}

TEST(NetValidationTest, RejectsNonFiniteRate)
{
    for (double rate : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()}) {
        for (NetMode mode : {NetMode::UnitRequest, NetMode::Circuit}) {
            EXPECT_THROW(validateNetworkPoint(rate, 8.0, 3, mode, 50),
                         std::invalid_argument)
                << rate;
        }
    }
}

} // namespace
} // namespace swcc
