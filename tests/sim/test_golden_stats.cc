/**
 * @file
 * Golden-statistics tests for the simulator's optimized hot path.
 *
 * The sharer-index directory and shift/mask cache addressing are
 * licensed by one invariant: they speed the simulator up without
 * changing a single statistic. These tests pin that invariant with
 * SimStats::serialize() byte-equality — the optimized directory snoop
 * path against the retained reference scan, for every protocol and
 * application profile, and parallel sweeps against serial ones across
 * thread counts. The two snoop paths share one event loop, so these
 * comparisons cannot see a change of event order; SchedulerGoldenTest
 * (test_sim_golden.cc) pins that order.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

/** Serialized statistics of one cold run on the given snoop path. */
std::string
runOn(MultiprocessorSystem &system, const TraceBuffer &trace,
      SnoopPath path)
{
    system.setSnoopPath(path);
    return system.run(trace).serialize();
}

TEST(GoldenStatsTest, PaperSchemesMatchReferenceScanOnEveryProfile)
{
    for (const CpuId cpus : {CpuId{4}, CpuId{8}}) {
        for (AppProfile profile : kAllProfiles) {
            for (Scheme scheme : kAllSchemes) {
                const bool software = scheme == Scheme::SoftwareFlush;
                const SyntheticWorkloadConfig workload =
                    profileConfig(profile, cpus, 8'000, 11, software);
                const TraceBuffer trace = generateTrace(workload);
                const SharedClassifier shared =
                    workload.sharedClassifier();

                MultiprocessorSystem reference(scheme, cache64k(), cpus,
                                               shared);
                MultiprocessorSystem directory(scheme, cache64k(), cpus,
                                               shared);
                EXPECT_EQ(
                    runOn(reference, trace, SnoopPath::ReferenceScan),
                    runOn(directory, trace, SnoopPath::Directory))
                    << "scheme " << schemeName(scheme) << " profile "
                    << profileName(profile) << ", " << unsigned{cpus}
                    << " cpus";
            }
        }
    }
}

TEST(GoldenStatsTest, UpdateSchemesMatchReferenceScanAtLargeCpuCounts)
{
    // The sharer index lets update-based schemes walk only a block's
    // holders instead of scanning every cache; at 32-48 CPUs on a
    // sharing-heavy profile that path carries real traffic (many
    // holders, mixed clean/dirty copies), so byte-equal statistics
    // here pin the whole off-Base directory fast path.
    for (const CpuId cpus : {CpuId{8}, CpuId{32}, CpuId{48}}) {
        const SyntheticWorkloadConfig workload =
            profileConfig(AppProfile::PeroLike, cpus, 3'000, 17, false);
        const TraceBuffer trace = generateTrace(workload);
        const SharedClassifier shared = workload.sharedClassifier();

        MultiprocessorSystem dragon_ref(Scheme::Dragon, cache64k(),
                                        cpus, shared);
        MultiprocessorSystem dragon_dir(Scheme::Dragon, cache64k(),
                                        cpus, shared);
        EXPECT_EQ(runOn(dragon_ref, trace, SnoopPath::ReferenceScan),
                  runOn(dragon_dir, trace, SnoopPath::Directory))
            << "dragon, " << unsigned{cpus} << " cpus";
    }
}

TEST(GoldenStatsTest, NewProtocolsMatchReferenceScanAtLargeCpuCounts)
{
    // Same contract for the invalidate family and the hybrid: the
    // sharer-index fast path (the holder walk that the MOESI Owned
    // supply and the hybrid's fills lean on) must not change a single
    // statistic versus the reference scan.
    for (const CpuId cpus : {CpuId{8}, CpuId{32}, CpuId{48}}) {
        const SyntheticWorkloadConfig workload =
            profileConfig(AppProfile::PeroLike, cpus, 3'000, 17, false);
        const TraceBuffer trace = generateTrace(workload);
        const SharedClassifier shared = workload.sharedClassifier();

        for (Scheme scheme : {Scheme::Mesi, Scheme::Mesif,
                              Scheme::Moesi, Scheme::Hybrid}) {
            MultiprocessorSystem reference(scheme, cache64k(), cpus,
                                           shared);
            MultiprocessorSystem directory(scheme, cache64k(), cpus,
                                           shared);
            EXPECT_EQ(
                runOn(reference, trace, SnoopPath::ReferenceScan),
                runOn(directory, trace, SnoopPath::Directory))
                << schemeName(scheme) << ", " << unsigned{cpus}
                << " cpus";
        }
    }
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

TEST(GoldenStatsTest, DirectoryFallsBackBeyondSixtyFourCpus)
{
    constexpr CpuId kCpus = 68;
    CacheConfig small;
    small.sizeBytes = 4096;
    small.blockBytes = 16;
    small.associativity = 2;

    TraceBuffer trace;
    for (CpuId cpu = 0; cpu < kCpus; ++cpu) {
        trace.append(cpu, RefType::Load, 0x8000'0000);
        trace.append(cpu, RefType::Store, 0x8000'0000);
    }

    MultiprocessorSystem requested(Scheme::Dragon, small, kCpus);
    requested.setSnoopPath(SnoopPath::Directory);
    EXPECT_EQ(requested.protocol().snoopPath(),
              SnoopPath::ReferenceScan);

    MultiprocessorSystem scan(Scheme::Dragon, small, kCpus);
    scan.setSnoopPath(SnoopPath::ReferenceScan);
    EXPECT_EQ(requested.run(trace).serialize(),
              scan.run(trace).serialize());
}

TEST(GoldenStatsTest, NewProtocolsFallBackBeyondSixtyFourCpus)
{
    // The warn-once fallback must degrade every extension protocol to
    // the reference scan cleanly, with identical statistics to an
    // explicitly requested scan.
    constexpr CpuId kCpus = 68;
    CacheConfig small;
    small.sizeBytes = 4096;
    small.blockBytes = 16;
    small.associativity = 2;

    TraceBuffer trace;
    for (CpuId cpu = 0; cpu < kCpus; ++cpu) {
        trace.append(cpu, RefType::Load, 0x8000'0000);
        trace.append(cpu, RefType::Store, 0x8000'0000);
    }

    for (Scheme scheme : {Scheme::Mesi, Scheme::Mesif, Scheme::Moesi,
                          Scheme::Hybrid}) {
        MultiprocessorSystem requested(scheme, small, kCpus);
        requested.setSnoopPath(SnoopPath::Directory);
        EXPECT_EQ(requested.protocol().snoopPath(),
                  SnoopPath::ReferenceScan)
            << schemeName(scheme);

        MultiprocessorSystem scan(scheme, small, kCpus);
        scan.setSnoopPath(SnoopPath::ReferenceScan);
        EXPECT_EQ(requested.run(trace).serialize(),
                  scan.run(trace).serialize())
            << schemeName(scheme);
    }
}

TEST(GoldenStatsTest, SnoopPathGaugeTracksTheEffectivePath)
{
    // sim.snoop_path.directory is a last-write-wins gauge published at
    // construction and on every setSnoopPath(); it must report the
    // effective path — including the silent >64-CPU fallback — for
    // the new protocols too.
    obs::Gauge &gauge =
        obs::metrics().gauge("sim.snoop_path.directory");

    for (Scheme scheme : {Scheme::Mesi, Scheme::Mesif, Scheme::Moesi,
                          Scheme::Hybrid}) {
        MultiprocessorSystem system(scheme, cache64k(), 4);
        EXPECT_DOUBLE_EQ(gauge.value(), 1.0) << schemeName(scheme);
        system.setSnoopPath(SnoopPath::ReferenceScan);
        EXPECT_DOUBLE_EQ(gauge.value(), 0.0) << schemeName(scheme);
        system.setSnoopPath(SnoopPath::Directory);
        EXPECT_DOUBLE_EQ(gauge.value(), 1.0) << schemeName(scheme);

        CacheConfig small;
        small.sizeBytes = 4096;
        small.blockBytes = 16;
        small.associativity = 2;
        MultiprocessorSystem large(scheme, small, 68);
        EXPECT_DOUBLE_EQ(gauge.value(), 0.0) << schemeName(scheme);
        large.setSnoopPath(SnoopPath::Directory); // Falls back.
        EXPECT_DOUBLE_EQ(gauge.value(), 0.0) << schemeName(scheme);
    }
}

TEST(GoldenStatsTest, SnoopPathCannotChangeOnAWarmSystem)
{
    TraceBuffer trace;
    trace.append(0, RefType::Load, 0x8000'0000);

    MultiprocessorSystem system(Scheme::Dragon, cache64k(), 2);
    system.run(trace);
    EXPECT_THROW(system.setSnoopPath(SnoopPath::ReferenceScan),
                 std::logic_error);
}

} // namespace
} // namespace swcc
