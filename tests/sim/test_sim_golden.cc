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
 *
 * The protocols' own measurement counters are pinned the same way:
 * Dragon's six extraction counters (with the workload's classifier),
 * the MESI family's invalidation and supply counters, the hybrid's
 * policy counters and Software-Flush's flush counters (on the
 * flush-bearing trace), one digest per (protocol, profile) at 8 CPUs.
 * At 4 CPUs thor-like issues no invalidation at all, so the
 * invalidation counters would read 0 there. The counters come from the
 * snoopy fill's and broadcast's holder walk, which branches on the
 * snoop path, so the same digests are checked on both paths.
 *
 * The event loop's order is pinned apart from the protocols: the same
 * serialized SimStats at 1, 8, 48 and 68 CPUs on pero-like, with
 * Dragon (whose broadcasts steal cycles from other processors' clocks),
 * MESI, Software-Flush (zero-cost fetches of flush instructions) and a
 * bus-saturated No-Cache run on 4 KiB 2-way caches, whose processors'
 * clocks spread over hundreds of cycles. Every processor's finish time
 * and bus wait depends on which processor goes next, so a reordered
 * event loop moves these digests on either snoop path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign/cell_hash.hh"
#include "sim/cache/dragon_protocol.hh"
#include "sim/cache/hybrid_protocol.hh"
#include "sim/cache/mesi_family_protocol.hh"
#include "sim/cache/swflush_protocol.hh"
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

/** Processors of each measurement run. */
constexpr CpuId kMeasuredCpus = 8;

std::vector<GoldenRun>
measurementRuns()
{
    using enum Scheme;
    using enum AppProfile;
    return {
        {"Dragon_pops", Dragon, PopsLike, 0x3330d317e11b55bcull},
        {"Dragon_thor", Dragon, ThorLike, 0x5eca06d0fdab9c82ull},
        {"Dragon_pero", Dragon, PeroLike, 0x554b9c75992416a6ull},
        {"Mesi_pops", Mesi, PopsLike, 0x85729966d031fa57ull},
        {"Mesi_thor", Mesi, ThorLike, 0xbe96879e9ef07e86ull},
        {"Mesi_pero", Mesi, PeroLike, 0xb1d2fc1c9945b8b4ull},
        {"Mesif_pops", Mesif, PopsLike, 0x85729166d031ecbfull},
        {"Mesif_thor", Mesif, ThorLike, 0xbe96879e9ef07e86ull},
        {"Mesif_pero", Mesif, PeroLike, 0xdb70b886b4a37c7full},
        {"Moesi_pops", Moesi, PopsLike, 0x2765910f86a5f1eeull},
        {"Moesi_thor", Moesi, ThorLike, 0xbe96879e9ef07e86ull},
        {"Moesi_pero", Moesi, PeroLike, 0xb4faeb48837dfb69ull},
        {"Hybrid_pops", Hybrid, PopsLike, 0xe2fa3d6d63692703ull},
        {"Hybrid_thor", Hybrid, ThorLike, 0x2a6f7cdfe61d9b89ull},
        {"Hybrid_pero", Hybrid, PeroLike, 0xbf88636bb2e9fd08ull},
        {"SoftwareFlush_pops", SoftwareFlush, PopsLike, 0x0a8d0b43d36aa40eull},
        {"SoftwareFlush_thor", SoftwareFlush, ThorLike, 0x079debc226332600ull},
        {"SoftwareFlush_pero", SoftwareFlush, PeroLike, 0xac2d61d41f20e265ull},
    };
}

void
printCounters(std::ostream &out, const DragonMeasurements &m)
{
    out << "sharedMisses=" << m.sharedMisses
        << " sharedMissesClean=" << m.sharedMissesClean
        << " sharedWrites=" << m.sharedWrites
        << " sharedWritesPresent=" << m.sharedWritesPresent
        << " broadcasts=" << m.broadcasts
        << " broadcastCopies=" << m.broadcastCopies;
}

void
printCounters(std::ostream &out, const MesiFamilyMeasurements &m)
{
    out << "invalidations=" << m.invalidations
        << " copiesInvalidated=" << m.copiesInvalidated
        << " coherenceMisses=" << m.coherenceMisses
        << " ownerSupplies=" << m.ownerSupplies
        << " forwardSupplies=" << m.forwardSupplies;
}

void
printCounters(std::ostream &out, const HybridMeasurements &m)
{
    out << "updateBroadcasts=" << m.updateBroadcasts
        << " wastedBroadcasts=" << m.wastedBroadcasts
        << " invalidations=" << m.invalidations
        << " copiesInvalidated=" << m.copiesInvalidated
        << " coherenceMisses=" << m.coherenceMisses
        << " switchesToInvalidate=" << m.switchesToInvalidate
        << " switchesToUpdate=" << m.switchesToUpdate;
}

void
printCounters(std::ostream &out, const FlushMeasurements &m)
{
    out << "flushes=" << m.flushes << " dirtyFlushes=" << m.dirtyFlushes
        << " missedFlushes=" << m.missedFlushes;
}

/** Runs @p protocol over @p trace on @p path and prints its counters. */
template <typename Protocol>
std::string
countersAfterRun(std::unique_ptr<Protocol> protocol,
                 const TraceBuffer &trace, SnoopPath path)
{
    protocol->setSnoopPath(path);
    EXPECT_EQ(protocol->snoopPath(), path);
    const Protocol &measured = *protocol;
    MultiprocessorSystem system(std::move(protocol));
    system.run(trace);
    std::ostringstream out;
    printCounters(out, measured.measurements());
    return out.str();
}

std::string
countersOf(const GoldenRun &golden,
           SnoopPath path = SnoopPath::Directory)
{
    const SyntheticWorkloadConfig workload =
        profileConfig(golden.profile, kMeasuredCpus, 10'000, 23,
                      golden.scheme == Scheme::SoftwareFlush);
    const TraceBuffer trace = generateTrace(workload);
    CacheConfig cache;
    cache.sizeBytes = 64 * 1024;
    cache.blockBytes = 16;
    switch (golden.scheme) {
      case Scheme::Dragon:
        return countersAfterRun(
            std::make_unique<DragonProtocol>(cache, kMeasuredCpus,
                                             workload.sharedClassifier()),
            trace, path);
      case Scheme::Mesi:
      case Scheme::Mesif:
      case Scheme::Moesi: {
        const MesiVariant variant = golden.scheme == Scheme::Mesi
            ? MesiVariant::Mesi
            : golden.scheme == Scheme::Mesif ? MesiVariant::Mesif
                                             : MesiVariant::Moesi;
        return countersAfterRun(std::make_unique<MesiFamilyProtocol>(
                                    variant, cache, kMeasuredCpus),
                                trace, path);
      }
      case Scheme::Hybrid:
        return countersAfterRun(
            std::make_unique<HybridProtocol>(cache, kMeasuredCpus), trace,
            path);
      case Scheme::SoftwareFlush:
        return countersAfterRun(
            std::make_unique<SwFlushProtocol>(cache, kMeasuredCpus), trace,
            path);
      default:
        ADD_FAILURE() << "no measurements for " << schemeName(golden.scheme);
        return "";
    }
}

class MeasurementGoldenTest : public ::testing::TestWithParam<GoldenRun>
{
};

TEST_P(MeasurementGoldenTest, CountersDigestIsPinned)
{
    const GoldenRun &golden = GetParam();
    const std::string counters = countersOf(golden);
    const std::uint64_t digest =
        campaign::fnv1a64(counters.data(), counters.size(), kFnvOffset);
    EXPECT_EQ(digest, golden.digest)
        << std::hex << "0x" << digest << "ull\n" << counters;
}

TEST_P(MeasurementGoldenTest, CountersDigestIsPinnedOnTheReferenceScan)
{
    const GoldenRun &golden = GetParam();
    const std::string counters =
        countersOf(golden, SnoopPath::ReferenceScan);
    const std::uint64_t digest =
        campaign::fnv1a64(counters.data(), counters.size(), kFnvOffset);
    EXPECT_EQ(digest, golden.digest)
        << std::hex << "0x" << digest << "ull\n" << counters;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MeasurementGoldenTest, ::testing::ValuesIn(measurementRuns()),
    [](const ::testing::TestParamInfo<GoldenRun> &test) {
        return test.param.name;
    });

/** One event-loop run: scheme, processor count and cache geometry. */
struct ScheduleRun
{
    std::string name;
    Scheme scheme;
    CpuId cpus;
    /** 4 KiB 2-way caches, which saturate the bus, not 64 KiB. */
    bool smallCaches;
    std::uint64_t digest;
};

void
PrintTo(const ScheduleRun &golden, std::ostream *os)
{
    *os << golden.name;
}

std::vector<ScheduleRun>
scheduleRuns()
{
    using enum Scheme;
    return {
        {"Base_1", Base, 1, false, 0x5a9e54e62c5158e1ull},
        {"Dragon_1", Dragon, 1, false, 0xd0ba4338870c654aull},
        {"Mesi_1", Mesi, 1, false, 0x6ba2afc3269fe59cull},
        {"Dragon_8", Dragon, 8, false, 0xed9d78be7d816334ull},
        {"Mesi_8", Mesi, 8, false, 0x681ef0f796565842ull},
        {"SoftwareFlush_8", SoftwareFlush, 8, false, 0x9e43d2d0101632ecull},
        {"NoCache_8", NoCache, 8, true, 0x0f3dba9182df0b21ull},
        {"Dragon_48", Dragon, 48, false, 0xef538636a7029317ull},
        {"Mesi_48", Mesi, 48, false, 0x0a0c679a433541afull},
        {"NoCache_48", NoCache, 48, true, 0xd131616abb5db847ull},
        {"Dragon_68", Dragon, 68, false, 0xf121471331ce58e2ull},
        {"Mesi_68", Mesi, 68, false, 0xaac92a1c726c642eull},
        {"NoCache_68", NoCache, 68, true, 0x37534a9eb8ba910bull},
    };
}

class SchedulerGoldenTest : public ::testing::TestWithParam<ScheduleRun>
{
};

TEST_P(SchedulerGoldenTest, StatsDigestIsPinned)
{
    const ScheduleRun &golden = GetParam();
    // The generator stops at 64 processors, so 68 CPUs replay a
    // 34-CPU trace twice, event by event: the second copy runs as
    // CPUs 34-67 and shares every block of the first.
    const CpuId generated = golden.cpus > 64
        ? static_cast<CpuId>(golden.cpus / 2) : golden.cpus;
    const SyntheticWorkloadConfig workload = profileConfig(
        AppProfile::PeroLike, generated,
        std::size_t{48'000} / golden.cpus + 500, 29,
        golden.scheme == Scheme::SoftwareFlush);
    TraceBuffer trace = generateTrace(workload);
    if (generated != golden.cpus) {
        TraceBuffer doubled;
        doubled.reserve(2 * trace.size());
        for (const TraceEvent &event : trace) {
            doubled.append(event);
            doubled.append(static_cast<CpuId>(event.cpu + generated),
                           event.type, event.addr);
        }
        trace = std::move(doubled);
    }
    CacheConfig cache;
    cache.sizeBytes = golden.smallCaches ? 4 * 1024 : 64 * 1024;
    cache.blockBytes = 16;
    cache.associativity = golden.smallCaches ? 2 : 1;
    MultiprocessorSystem system(golden.scheme, cache, golden.cpus,
                                workload.sharedClassifier());
    const std::string stats = system.run(trace).serialize();

    const std::uint64_t digest =
        campaign::fnv1a64(stats.data(), stats.size(), kFnvOffset);
    EXPECT_EQ(digest, golden.digest)
        << std::hex << "0x" << digest << "ull";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchedulerGoldenTest, ::testing::ValuesIn(scheduleRuns()),
    [](const ::testing::TestParamInfo<ScheduleRun> &test) {
        return test.param.name;
    });

} // namespace
} // namespace swcc
