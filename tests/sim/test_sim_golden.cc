/**
 * @file
 * Golden digests of the coherence simulator.
 *
 * Every scheme's statistics are pinned literally on each application
 * profile: one run per (scheme, profile) at 4 CPUs and 10,000
 * instructions per CPU, seed 23, with the workload's shared
 * classifier; Software-Flush runs on the flush-bearing trace. The
 * serialized SimStats (operation counts, misses, bus occupancy,
 * makespan and every CPU's counters) are folded into one FNV-1a digest
 * per run. A change to a protocol, the cache, the bus, the event loop
 * or the cost table moves these numbers, even one that moves both
 * snoop paths alike.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/campaign/cell_hash.hh"
#include "sim/mp/system.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{
namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

struct GoldenRun
{
    std::string name;
    Scheme scheme;
    AppProfile profile;
    std::uint64_t digest;
};

void
PrintTo(const GoldenRun &golden, std::ostream *os)
{
    *os << golden.name;
}

std::vector<GoldenRun>
goldenRuns()
{
    using enum Scheme;
    using enum AppProfile;
    return {
        {"Base_pops", Base, PopsLike, 0x62b917cc0b3f3edaull},
        {"Base_thor", Base, ThorLike, 0x8cef4adf75da0662ull},
        {"Base_pero", Base, PeroLike, 0x1dcb6a02255c89f8ull},
        {"NoCache_pops", NoCache, PopsLike, 0xb66db797109a0bb9ull},
        {"NoCache_thor", NoCache, ThorLike, 0xc756f36348fe0c37ull},
        {"NoCache_pero", NoCache, PeroLike, 0x48bbb1eb7df8a8c5ull},
        {"SoftwareFlush_pops", SoftwareFlush, PopsLike,
         0x9f713eddf815b296ull},
        {"SoftwareFlush_thor", SoftwareFlush, ThorLike,
         0x2cb3f506edf33690ull},
        {"SoftwareFlush_pero", SoftwareFlush, PeroLike,
         0xb4a72678f6964b9dull},
        {"Dragon_pops", Dragon, PopsLike, 0xd9ca7772fef6dc8cull},
        {"Dragon_thor", Dragon, ThorLike, 0xddbfa75e2d8760dfull},
        {"Dragon_pero", Dragon, PeroLike, 0xc9edc811a44b3c97ull},
        {"Mesi_pops", Mesi, PopsLike, 0x4033574cc43cc4fbull},
        {"Mesi_thor", Mesi, ThorLike, 0x2cefdb55e5680a71ull},
        {"Mesi_pero", Mesi, PeroLike, 0xbb1c2b22df8050bcull},
        {"Mesif_pops", Mesif, PopsLike, 0xfecbd248c20b00f8ull},
        {"Mesif_thor", Mesif, ThorLike, 0xf0a81b6081fb62deull},
        {"Mesif_pero", Mesif, PeroLike, 0xbb877476a3b9373aull},
        {"Moesi_pops", Moesi, PopsLike, 0x01a0cfbb1c9620acull},
        {"Moesi_thor", Moesi, ThorLike, 0x78dc9803aa511252ull},
        {"Moesi_pero", Moesi, PeroLike, 0xe2779299dccb3053ull},
        {"Hybrid_pops", Hybrid, PopsLike, 0xb7f166ced93da986ull},
        {"Hybrid_thor", Hybrid, ThorLike, 0x1fbe6c4a74a879c7ull},
        {"Hybrid_pero", Hybrid, PeroLike, 0x7adb17e66f1bb85dull},
    };
}

class SimGoldenTest : public ::testing::TestWithParam<GoldenRun>
{
};

TEST_P(SimGoldenTest, StatsDigestIsPinned)
{
    const GoldenRun &golden = GetParam();
    const SyntheticWorkloadConfig workload =
        profileConfig(golden.profile, 4, 10'000, 23,
                      golden.scheme == Scheme::SoftwareFlush);
    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;
    MultiprocessorSystem system(golden.scheme, cache, 4,
                                workload.sharedClassifier());
    const std::string stats =
        system.run(generateTrace(workload)).serialize();

    const std::uint64_t digest =
        campaign::fnv1a64(stats.data(), stats.size(), kFnvOffset);
    EXPECT_EQ(digest, golden.digest)
        << std::hex << "0x" << digest << "ull\n" << stats;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimGoldenTest, ::testing::ValuesIn(goldenRuns()),
    [](const ::testing::TestParamInfo<GoldenRun> &test) {
        return test.param.name;
    });

} // namespace
} // namespace swcc
