/**
 * @file
 * Golden-statistics tests for the simulator's hot path.
 *
 * The snoop walk over the other caches, the 16-byte cache line that
 * holds its own tag and the shift/mask addressing are licensed by one
 * invariant: they leave every statistic unchanged. These tests pin it
 * with FNV-1a digests of SimStats::serialize(): every protocol on
 * every application profile at 4 and 8 CPUs, and the snooping
 * protocols on the sharing-heavy pero-like profile at 8, 32 and 48
 * CPUs, where a snoop meets many holders and mixed clean and dirty
 * copies. The digests were recorded on the sharer-index directory the
 * simulator snooped through before the walk, which matched the walk
 * byte for byte. Parallel sweeps are checked against serial ones
 * across thread counts. SchedulerGoldenTest (test_sim_golden.cc) pins
 * the event order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <map>
#include <string>
#include <vector>

#include "core/campaign/cell_hash.hh"
#include "core/obs/metrics.hh"
#include "core/parallel.hh"
#include "core/solver_cache.hh"
#include "sim/mp/system.hh"
#include "sim/mp/validation.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{
namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** Digest of each pinned run, keyed "scheme/profile/cCPUS". */
using Pinned = std::map<std::string, std::uint64_t>;

/** Simulator runs so far in this process (the sim.runs counter). */
std::uint64_t
simRuns()
{
    for (const obs::MetricSnapshot &snap : obs::metrics().snapshot()) {
        if (snap.name == "sim.runs") {
            return static_cast<std::uint64_t>(snap.value);
        }
    }
    return 0;
}

CacheConfig
cache64k()
{
    CacheConfig config;
    config.sizeBytes = 64 * 1024;
    config.blockBytes = 16;
    return config;
}

/**
 * Runs @p scheme cold over @p trace with the workload's classifier and
 * checks the digest of its statistics against @p pinned. A mismatch
 * prints the table line to pin.
 */
void
expectPinned(const Pinned &pinned, Scheme scheme, AppProfile profile,
             const SyntheticWorkloadConfig &workload,
             const TraceBuffer &trace)
{
    const CpuId cpus = static_cast<CpuId>(workload.numCpus);
    const std::string name = std::string(schemeName(scheme)) + "/" +
        std::string(profileName(profile)) + "/c" +
        std::to_string(unsigned{cpus});
    MultiprocessorSystem system(scheme, cache64k(), cpus,
                                workload.sharedClassifier());
    const std::string stats = system.run(trace).serialize();
    const std::uint64_t digest =
        campaign::fnv1a64(stats.data(), stats.size(), kFnvOffset);
    const auto it = pinned.find(name);
    EXPECT_TRUE(it != pinned.end() && it->second == digest)
        << "{\"" << name << "\", 0x" << std::hex << std::setw(16)
        << std::setfill('0') << digest << "ull},";
}

TEST(GoldenStatsTest, EverySchemeIsPinnedOnEveryProfile)
{
    const Pinned pinned = {
        {"Base/pops-like/c4", 0x2cca32055d5fead0ull},
        {"No-Cache/pops-like/c4", 0xd5056aa0a4fae64aull},
        {"Software-Flush/pops-like/c4", 0xfbe8a371f081cf11ull},
        {"Dragon/pops-like/c4", 0xa238a96df3e88130ull},
        {"MESI/pops-like/c4", 0xef93bfd3df5aa166ull},
        {"MESIF/pops-like/c4", 0x33fb90906136acf7ull},
        {"MOESI/pops-like/c4", 0x4314ddd52d967733ull},
        {"Adaptive-Hybrid/pops-like/c4", 0x55ff1d6c2404ba28ull},
        {"Base/thor-like/c4", 0x709d596dc8a4d140ull},
        {"No-Cache/thor-like/c4", 0x52a44886719aa0dcull},
        {"Software-Flush/thor-like/c4", 0x4bcf0e7f1e11cec3ull},
        {"Dragon/thor-like/c4", 0xfa24bfc55ab602afull},
        {"MESI/thor-like/c4", 0xce6a67b7dbd105d9ull},
        {"MESIF/thor-like/c4", 0xb0b67300722cb5a4ull},
        {"MOESI/thor-like/c4", 0xe092f495c4ed7290ull},
        {"Adaptive-Hybrid/thor-like/c4", 0x5d9aa6cda9b62b27ull},
        {"Base/pero-like/c4", 0x0be680012a48359bull},
        {"No-Cache/pero-like/c4", 0x9a15c70e46824bdcull},
        {"Software-Flush/pero-like/c4", 0x010a3130352fbac0ull},
        {"Dragon/pero-like/c4", 0xc06fcecc52937c79ull},
        {"MESI/pero-like/c4", 0xaf08cdb4575b5583ull},
        {"MESIF/pero-like/c4", 0x5fc6577bc54e248bull},
        {"MOESI/pero-like/c4", 0xcefc454e294d4bc0ull},
        {"Adaptive-Hybrid/pero-like/c4", 0x05ebca75af6f2a0cull},
        {"Base/pops-like/c8", 0x4a3d647bf31a1e5dull},
        {"No-Cache/pops-like/c8", 0xaad64d60ead5cacaull},
        {"Software-Flush/pops-like/c8", 0xe8402f00fa1a3638ull},
        {"Dragon/pops-like/c8", 0xbc651e96b77ae441ull},
        {"MESI/pops-like/c8", 0xf4488bbe7389284dull},
        {"MESIF/pops-like/c8", 0x8ec42c0f8097b8eaull},
        {"MOESI/pops-like/c8", 0x1650cd146921c6c9ull},
        {"Adaptive-Hybrid/pops-like/c8", 0x1feed49e7d54cee2ull},
        {"Base/thor-like/c8", 0x5c672a4e2504923eull},
        {"No-Cache/thor-like/c8", 0x1101b2e922fe6916ull},
        {"Software-Flush/thor-like/c8", 0x64106f921203fb81ull},
        {"Dragon/thor-like/c8", 0xb413c9a3b3956993ull},
        {"MESI/thor-like/c8", 0x02a6b4bf9564bcd4ull},
        {"MESIF/thor-like/c8", 0x94d1bacc2650cc1dull},
        {"MOESI/thor-like/c8", 0x8e5aa0db481d63b9ull},
        {"Adaptive-Hybrid/thor-like/c8", 0xf1b36649fa172fb0ull},
        {"Base/pero-like/c8", 0x87bfd39309c6a2efull},
        {"No-Cache/pero-like/c8", 0x9e24ecfe1f088d5eull},
        {"Software-Flush/pero-like/c8", 0xeb2f6be161ab88dcull},
        {"Dragon/pero-like/c8", 0x586c3dd3bf424674ull},
        {"MESI/pero-like/c8", 0x1cee822053b7ad0cull},
        {"MESIF/pero-like/c8", 0x03df307b7b3c1682ull},
        {"MOESI/pero-like/c8", 0xfe863191ab89ca31ull},
        {"Adaptive-Hybrid/pero-like/c8", 0x42ee7cc578048e10ull},
    };
    std::size_t runs = 0;
    for (const CpuId cpus : {CpuId{4}, CpuId{8}}) {
        for (AppProfile profile : kAllProfiles) {
            for (Scheme scheme : kAllSchemes) {
                const bool software = scheme == Scheme::SoftwareFlush;
                const SyntheticWorkloadConfig workload =
                    profileConfig(profile, cpus, 8'000, 11, software);
                expectPinned(pinned, scheme, profile, workload,
                             generateTrace(workload));
                ++runs;
            }
        }
    }
    EXPECT_EQ(runs, pinned.size());
}

TEST(GoldenStatsTest, SnoopingSchemesArePinnedAtLargeCpuCounts)
{
    // Dragon's update broadcasts, the MOESI Owned supply and the
    // hybrid's fills walk many holders here.
    const Pinned pinned = {
        {"Dragon/pero-like/c8", 0x00b9a735a37004b4ull},
        {"MESI/pero-like/c8", 0xd40599219cdcdb70ull},
        {"MESIF/pero-like/c8", 0x19fac22d50105761ull},
        {"MOESI/pero-like/c8", 0x68690f4dab73701dull},
        {"Adaptive-Hybrid/pero-like/c8", 0xa389cd69295df5b2ull},
        {"Dragon/pero-like/c32", 0x13ec23ee7806ba1aull},
        {"MESI/pero-like/c32", 0xf53e6c56b5bfb03cull},
        {"MESIF/pero-like/c32", 0xcb84302a3c97fd2eull},
        {"MOESI/pero-like/c32", 0xb5f6784ae42b0a71ull},
        {"Adaptive-Hybrid/pero-like/c32", 0xd78ae412be4a696cull},
        {"Dragon/pero-like/c48", 0xdbee681d7fd89f79ull},
        {"MESI/pero-like/c48", 0x1f75def241dccc1dull},
        {"MESIF/pero-like/c48", 0xb3107dc3c65bbeebull},
        {"MOESI/pero-like/c48", 0x7781d74ecab66679ull},
        {"Adaptive-Hybrid/pero-like/c48", 0x5c369b93b606d315ull},
    };
    std::size_t runs = 0;
    for (const CpuId cpus : {CpuId{8}, CpuId{32}, CpuId{48}}) {
        const SyntheticWorkloadConfig workload =
            profileConfig(AppProfile::PeroLike, cpus, 3'000, 17, false);
        const TraceBuffer trace = generateTrace(workload);
        for (Scheme scheme : {Scheme::Dragon, Scheme::Mesi,
                              Scheme::Mesif, Scheme::Moesi,
                              Scheme::Hybrid}) {
            expectPinned(pinned, scheme, AppProfile::PeroLike, workload,
                         trace);
            ++runs;
        }
    }
    EXPECT_EQ(runs, pinned.size());
}

TEST(GoldenStatsTest, SweepStatisticsAreThreadCountInvariant)
{
    ValidationConfig config;
    config.profile = AppProfile::PeroLike;
    config.scheme = Scheme::Dragon;
    config.maxCpus = 3;
    config.instructionsPerCpu = 6'000;
    config.seed = 7;

    const auto serialized = [&] {
        std::vector<std::string> result;
        for (const ValidationPoint &point : validate(config)) {
            result.push_back(point.sim.serialize());
        }
        return result;
    };

    setThreadCount(1);
    const std::vector<std::string> serial = serialized();
    // Empty the memo so the 4-lane sweep simulates and extracts itself
    // instead of copying the serial sweep's stored extractions.
    clearSolverCache();
    const std::uint64_t runs = simRuns();
    setThreadCount(4);
    const std::vector<std::string> parallel = serialized();
    setThreadCount(0);
    EXPECT_GT(simRuns(), runs);

    EXPECT_EQ(serial, parallel);
}

} // namespace
} // namespace swcc
