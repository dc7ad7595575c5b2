/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/synth/rng.hh"

namespace swcc
{
namespace
{

TEST(RngTest, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformStaysInHalfOpenUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformMeanIsHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        sum += rng.uniform();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BelowRespectsBound)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_LT(rng.below(bound), bound);
        }
    }
    EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(RngTest, BelowOfAPowerOfTwoIsTheRemainderOfOneDraw)
{
    // A power-of-two bound rejects no draw, so below() consumes exactly
    // one next() and returns its remainder, as rejection sampling would.
    Rng rng(9), raw(9);
    for (unsigned k = 0; k < 64; ++k) {
        const std::uint64_t bound = std::uint64_t{1} << k;
        for (int i = 0; i < 16; ++i) {
            EXPECT_EQ(rng.below(bound), raw.next() % bound) << bound;
        }
    }
    EXPECT_EQ(rng.next(), raw.next());
}

TEST(RngTest, BelowCoversTheRange)
{
    Rng rng(5);
    std::array<int, 8> counts{};
    for (int i = 0; i < 8000; ++i) {
        ++counts[rng.below(8)];
    }
    for (int c : counts) {
        EXPECT_GT(c, 800);
        EXPECT_LT(c, 1200);
    }
}

TEST(RngTest, BetweenIsInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(rng.between(5, 3), std::invalid_argument);
}

TEST(RngTest, ChanceHandlesDegenerateProbabilities)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.5));
    }
}

TEST(RngTest, ChanceMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        hits += rng.chance(0.3) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GeometricMeanIsOneOverP)
{
    Rng rng(19);
    for (double p : {0.5, 0.1, 0.02}) {
        double sum = 0.0;
        const int n = 50000;
        for (int i = 0; i < n; ++i) {
            sum += static_cast<double>(rng.geometric(p));
        }
        EXPECT_NEAR(sum / n, 1.0 / p, 0.05 / p) << "p=" << p;
    }
}

TEST(RngTest, GeometricSupportStartsAtOne)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_GE(rng.geometric(0.9), 1u);
    }
    EXPECT_EQ(rng.geometric(1.0), 1u);
    EXPECT_THROW(rng.geometric(0.0), std::invalid_argument);
    EXPECT_THROW(rng.geometric(1.5), std::invalid_argument);
}

TEST(RngTest, ZipfStaysInRangeAndSkews)
{
    Rng rng(29);
    const std::uint64_t n = 100;
    std::uint64_t low_half = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        const std::uint64_t v = rng.zipf(n, 1.0);
        EXPECT_LT(v, n);
        low_half += v < n / 2 ? 1 : 0;
    }
    // With positive skew, the lower ranks get well over half the mass.
    EXPECT_GT(static_cast<double>(low_half) / trials, 0.6);
    EXPECT_THROW(rng.zipf(0, 1.0), std::invalid_argument);
}

TEST(RngTest, SplitIsDeterministicPerIndex)
{
    const Rng parent(42);
    Rng a = parent.split(3);
    Rng b = parent.split(3);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(RngTest, SplitStreamsAreDecorrelated)
{
    const Rng parent(42);
    // Adjacent cell indices, and the parent itself, must all diverge.
    Rng streams[3] = {parent.split(0), parent.split(1), Rng(42)};
    int collisions = 0;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t a = streams[0].next();
        const std::uint64_t b = streams[1].next();
        const std::uint64_t c = streams[2].next();
        collisions += (a == b || a == c || b == c) ? 1 : 0;
    }
    EXPECT_EQ(collisions, 0);
}

TEST(RngTest, SplitDoesNotAdvanceTheParent)
{
    Rng with_split(7);
    Rng plain(7);
    (void)with_split.split(5);
    (void)with_split.split(6);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(with_split.next(), plain.next());
    }
}

TEST(RngTest, SplitDependsOnParentState)
{
    // Streams derived from different parents must differ too.
    Rng a = Rng(1).split(0);
    Rng b = Rng(2).split(0);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        same += a.next() == b.next() ? 1 : 0;
    }
    EXPECT_EQ(same, 0);
}

TEST(RngTest, ZipfZeroSkewIsUniform)
{
    Rng rng(31);
    std::uint64_t low_half = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        low_half += rng.zipf(100, 0.0) < 50 ? 1u : 0u;
    }
    EXPECT_NEAR(static_cast<double>(low_half) / trials, 0.5, 0.02);
}

} // namespace
} // namespace swcc
