/**
 * @file
 * Unit and property tests for the synthetic trace generator.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/mp/system.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"
#include "sim/trace/trace_stats.hh"

namespace swcc
{
namespace
{

SyntheticWorkloadConfig
smallConfig()
{
    SyntheticWorkloadConfig config;
    config.numCpus = 4;
    config.instructionsPerCpu = 30'000;
    config.seed = 123;
    return config;
}

TEST(GeneratorTest, ProducesRequestedCpus)
{
    const TraceBuffer trace = generateTrace(smallConfig());
    EXPECT_EQ(trace.numCpus(), 4u);
}

TEST(GeneratorTest, RetiresAtLeastTheRequestedInstructions)
{
    const SyntheticWorkloadConfig config = smallConfig();
    const TraceBuffer trace = generateTrace(config);
    std::vector<std::size_t> ifetches(config.numCpus, 0);
    for (const TraceEvent &event : trace) {
        if (event.type == RefType::IFetch) {
            ++ifetches[event.cpu];
        }
    }
    for (std::size_t count : ifetches) {
        EXPECT_GE(count, config.instructionsPerCpu);
        // Some slack for lock and flush instructions.
        EXPECT_LT(count, config.instructionsPerCpu * 11 / 10);
    }
}

TEST(GeneratorTest, DeterministicPerSeed)
{
    const TraceBuffer a = generateTrace(smallConfig());
    const TraceBuffer b = generateTrace(smallConfig());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i += 997) {
        EXPECT_EQ(a[i], b[i]);
    }

    SyntheticWorkloadConfig other = smallConfig();
    other.seed = 999;
    const TraceBuffer c = generateTrace(other);
    EXPECT_NE(a.size(), c.size());
}

TEST(GeneratorTest, NoFlushesUnlessRequested)
{
    EXPECT_EQ(generateTrace(smallConfig()).countType(RefType::Flush), 0u);

    SyntheticWorkloadConfig config = smallConfig();
    config.emitFlushes = true;
    EXPECT_GT(generateTrace(config).countType(RefType::Flush), 0u);
}

TEST(GeneratorTest, MeasuredParametersTrackConfiguration)
{
    SyntheticWorkloadConfig config = smallConfig();
    config.ls = 0.35;
    config.shd = 0.2;
    const TraceBuffer trace = generateTrace(config);
    const TraceStatistics stats =
        analyzeTrace(trace, config.blockBytes, config.sharedClassifier());

    EXPECT_NEAR(stats.ls, 0.35, 0.02);
    EXPECT_NEAR(stats.shd, 0.2, 0.04);
}

TEST(GeneratorTest, SegmentsStayInTheirAddressRanges)
{
    SyntheticWorkloadConfig config = smallConfig();
    config.emitFlushes = true;
    const TraceBuffer trace = generateTrace(config);
    for (const TraceEvent &event : trace) {
        switch (event.type) {
          case RefType::IFetch:
            EXPECT_GE(event.addr, config.codeBase(event.cpu));
            EXPECT_LT(event.addr,
                      config.codeBase(event.cpu) + config.codeBytes);
            break;
          case RefType::Load:
          case RefType::Store:
          case RefType::Flush:
            if (event.addr >= SyntheticWorkloadConfig::kSharedBase) {
                EXPECT_LT(event.addr,
                          SyntheticWorkloadConfig::kSharedBase +
                              config.sharedBytes);
            } else {
                EXPECT_GE(event.addr, config.privateBase(event.cpu));
                EXPECT_LT(event.addr, config.privateBase(event.cpu) +
                                          config.privateBytes);
            }
            break;
        }
    }
}

TEST(GeneratorTest, FlushesTargetOnlySharedBlocks)
{
    SyntheticWorkloadConfig config = smallConfig();
    config.emitFlushes = true;
    const TraceBuffer trace = generateTrace(config);
    const SharedClassifier shared = config.sharedClassifier();
    for (const TraceEvent &event : trace) {
        if (event.type == RefType::Flush) {
            EXPECT_TRUE(shared(event.addr & ~static_cast<Addr>(15)));
        }
    }
}

TEST(GeneratorTest, ZeroSharingNeverTouchesSharedSegment)
{
    SyntheticWorkloadConfig config = smallConfig();
    config.shd = 0.0;
    const TraceBuffer trace = generateTrace(config);
    for (const TraceEvent &event : trace) {
        EXPECT_LT(event.addr, SyntheticWorkloadConfig::kSharedBase);
    }
}

TEST(GeneratorTest, RejectsInvalidConfig)
{
    SyntheticWorkloadConfig config = smallConfig();
    config.numCpus = 0;
    EXPECT_THROW(generateTrace(config), std::invalid_argument);

    config = smallConfig();
    config.ls = 1.4;
    EXPECT_THROW(generateTrace(config), std::invalid_argument);

    config = smallConfig();
    config.blockBytes = 12;
    EXPECT_THROW(generateTrace(config), std::invalid_argument);

    config = smallConfig();
    config.regionBlocks = 0;
    EXPECT_THROW(generateTrace(config), std::invalid_argument);
}

TEST(GeneratorTest, ConfigRejectsBlocksSmallerThanAWord)
{
    // Word offsets are drawn below blockBytes / 4, so a block must hold
    // one 4-byte word. validate() itself must say so: generateTrace()
    // would also throw, but from the draw, after allocating.
    SyntheticWorkloadConfig config = smallConfig();
    for (std::size_t bytes : {1u, 2u}) {
        config.blockBytes = bytes;
        EXPECT_THROW(config.validate(), std::invalid_argument) << bytes;
    }
    config.blockBytes = 4;
    EXPECT_NO_THROW(config.validate());
}

TEST(GeneratorTest, ConfigRejectsMoreCpusThanPrivateSegments)
{
    // 64 private segments fill the space below the shared segment;
    // CPU 64's would start at kSharedBase, so its private data would
    // be classified shared. Past 65535 CPUs a CpuId wraps as well.
    EXPECT_EQ(SyntheticWorkloadConfig::kMaxCpus, 64u);
    SyntheticWorkloadConfig config = smallConfig();
    config.numCpus = SyntheticWorkloadConfig::kMaxCpus;
    EXPECT_NO_THROW(config.validate());
    EXPECT_EQ(config.privateBase(63) +
                  SyntheticWorkloadConfig::kPrivateStride,
              SyntheticWorkloadConfig::kSharedBase);
    for (unsigned cpus : {65u, 70'000u}) {
        config.numCpus = cpus;
        EXPECT_THROW(config.validate(), std::invalid_argument) << cpus;
    }
}

TEST(MigrationTest, OffByDefaultKeepsPrivateDataPrivate)
{
    SyntheticWorkloadConfig config = smallConfig();
    config.shd = 0.0; // Only private data; sharing can come only from
                      // migration.
    const TraceBuffer trace = generateTrace(config);
    const TraceStatistics stats = analyzeTrace(trace, 16);
    EXPECT_DOUBLE_EQ(stats.shd, 0.0);
}

TEST(MigrationTest, MigrationMakesPrivateDataDynamicallyShared)
{
    SyntheticWorkloadConfig config = smallConfig();
    config.shd = 0.0;
    config.migrationIntervalInstrs = 3'000;
    const TraceBuffer trace = generateTrace(config);
    // Dynamic detection: migrated segments are touched by two cpus.
    const TraceStatistics stats = analyzeTrace(trace, 16);
    EXPECT_GT(stats.shd, 0.015);
    // The software interpretation (marked region) is unchanged: no
    // flush or bypass would protect this data.
    const TraceStatistics marked =
        analyzeTrace(trace, 16, config.sharedClassifier());
    EXPECT_DOUBLE_EQ(marked.shd, 0.0);
}

TEST(MigrationTest, MigrationRaisesMissRates)
{
    SyntheticWorkloadConfig config = smallConfig();
    SyntheticWorkloadConfig migratory = config;
    migratory.migrationIntervalInstrs = 5'000;

    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;
    auto miss_rate = [&cache](const SyntheticWorkloadConfig &c) {
        return simulateTrace(Scheme::Base, generateTrace(c), cache)
            .dataMissRate();
    };
    // The cold restarts after each migration inflate the miss rate.
    EXPECT_GT(miss_rate(migratory), 1.2 * miss_rate(config));
}

TEST(MigrationTest, SingleCpuMachineCannotMigrate)
{
    SyntheticWorkloadConfig config = smallConfig();
    config.numCpus = 1;
    config.migrationIntervalInstrs = 1'000;
    EXPECT_NO_THROW(generateTrace(config));
}

/** Profile sweep: measured parameters land in paper Table 7's ranges. */
class ProfileTest : public ::testing::TestWithParam<AppProfile>
{
};

TEST_P(ProfileTest, MeasuredParametersAreInStudiedRanges)
{
    const SyntheticWorkloadConfig config =
        profileConfig(GetParam(), 4, 60'000, 11, true);
    const TraceBuffer trace = generateTrace(config);
    const TraceStatistics stats =
        analyzeTrace(trace, config.blockBytes, config.sharedClassifier());

    EXPECT_GE(stats.ls, 0.15);
    EXPECT_LE(stats.ls, 0.45);
    EXPECT_GE(stats.shd, 0.02);
    EXPECT_LE(stats.shd, 0.45);
    EXPECT_GE(stats.wr, 0.05);
    EXPECT_LE(stats.wr, 0.45);
    ASSERT_TRUE(stats.apl.has_value());
    EXPECT_GE(*stats.apl, 1.0);
    EXPECT_LE(*stats.apl, 30.0);
    ASSERT_TRUE(stats.mdshd.has_value());
    EXPECT_GE(*stats.mdshd, 0.1);
    EXPECT_LE(*stats.mdshd, 0.8);
}

TEST_P(ProfileTest, ProfilesAreDistinct)
{
    const SyntheticWorkloadConfig config =
        profileConfig(GetParam(), 2, 1'000, 1, false);
    EXPECT_EQ(config.name, profileName(GetParam()));
    EXPECT_NO_THROW(config.validate());
}

INSTANTIATE_TEST_SUITE_P(Profiles, ProfileTest,
                         ::testing::ValuesIn(kAllProfiles));

TEST(ProfileTest, SharingLevelsOrderAsDocumented)
{
    // thor-like < pops-like < pero-like in sharing.
    auto shd_of = [](AppProfile profile) {
        const SyntheticWorkloadConfig config =
            profileConfig(profile, 4, 40'000, 3, false);
        return analyzeTrace(generateTrace(config), config.blockBytes,
                            config.sharedClassifier())
            .shd;
    };
    const double thor = shd_of(AppProfile::ThorLike);
    const double pops = shd_of(AppProfile::PopsLike);
    const double pero = shd_of(AppProfile::PeroLike);
    EXPECT_LT(thor, pops);
    EXPECT_LT(pops, pero);
}

} // namespace
} // namespace swcc
