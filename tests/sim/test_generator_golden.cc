/**
 * @file
 * Golden digests of the synthetic trace generator.
 *
 * Generated traces are pinned literally: every event's address, cpu
 * and type is folded into one FNV-1a digest per configuration, and the
 * event count and cpu count are checked beside it. The grid covers
 * each profile with and without flushes at 1, 3 and 8 CPUs, a
 * configuration whose code and private segments run out of blocks,
 * and one with process migration. A change to the RNG draw order, the
 * LRU stack walk or the flush order moves these numbers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/campaign/cell_hash.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{
namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

template <typename T>
void
mix(std::uint64_t &hash, const T &value)
{
    hash = campaign::fnv1a64(&value, sizeof value, hash);
}

std::uint64_t
digest(const TraceBuffer &trace)
{
    std::uint64_t hash = kFnvOffset;
    for (const TraceEvent &event : trace) {
        mix(hash, event.addr);
        mix(hash, event.cpu);
        mix(hash, static_cast<std::uint8_t>(event.type));
    }
    return hash;
}

struct GoldenCase
{
    std::string name;
    SyntheticWorkloadConfig config;
    std::size_t events;
    CpuId cpus;
    std::uint64_t digest;
};

void
PrintTo(const GoldenCase &golden, std::ostream *os)
{
    *os << golden.name;
}

SyntheticWorkloadConfig
profileCase(AppProfile profile, unsigned cpus, bool flushes)
{
    return profileConfig(profile, cpus, 5'000, 7 + cpus, flushes);
}

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases = {
        {"pops_1", profileCase(AppProfile::PopsLike, 1, false),
         6601, 1, 0x17a7ded3fcb82fd7ull},
        {"pops_3", profileCase(AppProfile::PopsLike, 3, false),
         19808, 3, 0x9f20c3b557142167ull},
        {"pops_8", profileCase(AppProfile::PopsLike, 8, false),
         52960, 8, 0x5bacae35c4fd1a55ull},
        {"pops_flush_1", profileCase(AppProfile::PopsLike, 1, true),
         6798, 1, 0x869f53d73f16bb4full},
        {"pops_flush_3", profileCase(AppProfile::PopsLike, 3, true),
         20155, 3, 0x5a6a3c0e9ba90c87ull},
        {"pops_flush_8", profileCase(AppProfile::PopsLike, 8, true),
         53603, 8, 0x60a2273a9729cf4bull},
        {"thor_1", profileCase(AppProfile::ThorLike, 1, false),
         6304, 1, 0xcf5c664404b760baull},
        {"thor_3", profileCase(AppProfile::ThorLike, 3, false),
         19104, 3, 0x49de1ec0fea214ecull},
        {"thor_8", profileCase(AppProfile::ThorLike, 8, false),
         50869, 8, 0xf61ccf5e411c8f07ull},
        {"thor_flush_1", profileCase(AppProfile::ThorLike, 1, true),
         6340, 1, 0x47da6dc1383f6b4cull},
        {"thor_flush_3", profileCase(AppProfile::ThorLike, 3, true),
         19144, 3, 0x8f6448037051f797ull},
        {"thor_flush_8", profileCase(AppProfile::ThorLike, 8, true),
         50821, 8, 0x00de99af69c2a078ull},
        {"pero_1", profileCase(AppProfile::PeroLike, 1, false),
         6761, 1, 0xde77dbbcaf6076c0ull},
        {"pero_3", profileCase(AppProfile::PeroLike, 3, false),
         20301, 3, 0x9b8fe57ac0a66df1ull},
        {"pero_8", profileCase(AppProfile::PeroLike, 8, false),
         54046, 8, 0xbde980de49dbca5eull},
        {"pero_flush_1", profileCase(AppProfile::PeroLike, 1, true),
         6891, 1, 0xb3a4a385bd73eacfull},
        {"pero_flush_3", profileCase(AppProfile::PeroLike, 3, true),
         20991, 3, 0xc9efca09a9bade3bull},
        {"pero_flush_8", profileCase(AppProfile::PeroLike, 8, true),
         56004, 8, 0xe738df1d6e50e1acull},
    };

    // Four code blocks and four private blocks: the stack walks run
    // out of unallocated blocks and take the coldest-block branch.
    SyntheticWorkloadConfig tiny =
        profileCase(AppProfile::PopsLike, 3, true);
    tiny.codeBytes = 64;
    tiny.privateBytes = 64;
    cases.push_back(
        {"tiny_segments_flush_3", tiny, 20276, 3, 0xc442e1255936df9eull});

    // Migration swaps processes and restarts their stacks cold.
    SyntheticWorkloadConfig migratory =
        profileCase(AppProfile::PeroLike, 4, false);
    migratory.migrationIntervalInstrs = 1'500;
    cases.push_back(
        {"migration_4", migratory, 27005, 4, 0x4c46967484226b1cull});
    return cases;
}

class GeneratorGoldenTest : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GeneratorGoldenTest, TraceDigestIsPinned)
{
    const GoldenCase &golden = GetParam();
    const TraceBuffer trace = generateTrace(golden.config);
    EXPECT_EQ(trace.size(), golden.events);
    EXPECT_EQ(trace.numCpus(), golden.cpus);
    EXPECT_EQ(digest(trace), golden.digest)
        << std::hex << "0x" << digest(trace) << "ull";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GeneratorGoldenTest, ::testing::ValuesIn(goldenCases()),
    [](const ::testing::TestParamInfo<GoldenCase> &test) {
        return test.param.name;
    });

} // namespace
} // namespace swcc
