/**
 * @file
 * Integration tests: the analytical model agrees with the simulator
 * (the paper's Section 3 validation, as tests).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/campaign/cell_hash.hh"
#include "core/campaign/journal.hh"
#include "core/obs/metrics.hh"
#include "core/parallel.hh"
#include "core/scheme_evaluator.hh"
#include "core/solver_cache.hh"
#include "sim/mp/param_extractor.hh"
#include "sim/mp/system.hh"
#include "sim/mp/validation.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{
namespace
{

ValidationConfig
baseConfig(Scheme scheme,
           AppProfile profile = AppProfile::PopsLike)
{
    ValidationConfig config;
    config.profile = profile;
    config.scheme = scheme;
    config.maxCpus = 4;
    config.instructionsPerCpu = 60'000;
    config.seed = 101;
    return config;
}

class SchemeValidationTest
    : public ::testing::TestWithParam<std::tuple<Scheme, AppProfile>>
{
};

TEST_P(SchemeValidationTest, ModelTracksSimulationWithinTolerance)
{
    const auto [scheme, profile] = GetParam();
    const auto points = validate(baseConfig(scheme, profile));
    ASSERT_EQ(points.size(), 4u);
    for (const ValidationPoint &point : points) {
        EXPECT_LT(std::abs(point.errorPercent()), 16.0)
            << schemeName(scheme) << '/' << profileName(profile)
            << " cpus=" << point.cpus << " sim=" << point.simPower
            << " model=" << point.modelPower;
    }
}

TEST_P(SchemeValidationTest, PowerGrowsWithProcessors)
{
    const auto [scheme, profile] = GetParam();
    const auto points = validate(baseConfig(scheme, profile));
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_GT(points[i].simPower, points[i - 1].simPower);
        EXPECT_GT(points[i].modelPower, points[i - 1].modelPower);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByProfile, SchemeValidationTest,
    ::testing::Combine(
        ::testing::Values(Scheme::Base, Scheme::Dragon,
                          Scheme::SoftwareFlush, Scheme::NoCache),
        ::testing::ValuesIn(kAllProfiles)));

TEST(ValidationBiasTest, ModelOverestimatesContentionOnAverage)
{
    // Paper Section 3: the model "consistently overestimates bus
    // contention" because it assumes exponential rather than fixed bus
    // service times. Overestimated contention means underestimated
    // power, so the mean signed error is negative at multi-processor
    // points.
    double total_error = 0.0;
    int points_counted = 0;
    for (Scheme scheme : {Scheme::Base, Scheme::Dragon}) {
        for (const ValidationPoint &point :
             validate(baseConfig(scheme))) {
            if (point.cpus >= 2) {
                total_error += point.errorPercent();
                ++points_counted;
            }
        }
    }
    ASSERT_GT(points_counted, 0);
    EXPECT_LT(total_error / points_counted, 0.0);
}

TEST(ValidationBiasTest, SingleProcessorNeedsNoContentionModel)
{
    // With one processor there is no contention to misestimate, so the
    // model should be near-exact (measured inputs, measured service).
    for (Scheme scheme : {Scheme::Base, Scheme::Dragon}) {
        const auto points = validate(baseConfig(scheme));
        EXPECT_LT(std::abs(points.front().errorPercent()), 2.0)
            << schemeName(scheme);
    }
}

TEST(ValidationRelativeTest, ModelPreservesTheBaseDragonGap)
{
    // Paper: "the model exactly captures the relative difference
    // between the performance of Base and Dragon schemes".
    const auto base = validate(baseConfig(Scheme::Base));
    const auto dragon = validate(baseConfig(Scheme::Dragon));
    for (std::size_t i = 1; i < base.size(); ++i) {
        const double sim_gap = base[i].simPower / dragon[i].simPower;
        const double model_gap =
            base[i].modelPower / dragon[i].modelPower;
        EXPECT_NEAR(sim_gap, model_gap, 0.05 * sim_gap);
    }
}

TEST(ValidationPointTest, ErrorPercentIsSigned)
{
    ValidationPoint point;
    point.simPower = 2.0;
    point.modelPower = 1.8;
    EXPECT_NEAR(point.errorPercent(), -10.0, 1e-12);
    point.modelPower = 2.2;
    EXPECT_NEAR(point.errorPercent(), 10.0, 1e-12);
    point.simPower = 0.0;
    EXPECT_DOUBLE_EQ(point.errorPercent(), 0.0);
}

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

/** Short validation config: the memo contract, not model accuracy. */
ValidationConfig
shortConfig(AppProfile profile, Scheme scheme, CpuId max_cpus)
{
    ValidationConfig config;
    config.profile = profile;
    config.scheme = scheme;
    config.maxCpus = max_cpus;
    config.instructionsPerCpu = 4'000;
    config.seed = 23;
    return config;
}

/** One validate() call per scheme, in kAllSchemes order. */
std::vector<std::vector<ValidationPoint>>
validateEveryScheme(AppProfile profile, CpuId max_cpus)
{
    std::vector<std::vector<ValidationPoint>> out;
    for (Scheme scheme : kAllSchemes) {
        out.push_back(validate(shortConfig(profile, scheme, max_cpus)));
    }
    return out;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectIdentical(const ValidationPoint &a, const ValidationPoint &b,
                const std::string &what)
{
    EXPECT_EQ(a.profile, b.profile) << what;
    EXPECT_EQ(a.scheme, b.scheme) << what;
    EXPECT_EQ(a.cpus, b.cpus) << what;
    EXPECT_EQ(a.cacheBytes, b.cacheBytes) << what;
    EXPECT_TRUE(sameBits(a.simPower, b.simPower)) << what;
    EXPECT_TRUE(sameBits(a.modelPower, b.modelPower)) << what;
    EXPECT_EQ(a.sim.serialize(), b.sim.serialize()) << what;
    EXPECT_EQ(a.model.processors, b.model.processors) << what;
    EXPECT_TRUE(sameBits(a.model.cpu, b.model.cpu)) << what;
    EXPECT_TRUE(sameBits(a.model.bus, b.model.bus)) << what;
    EXPECT_TRUE(sameBits(a.model.waiting, b.model.waiting)) << what;
    EXPECT_TRUE(sameBits(a.model.busUtilization, b.model.busUtilization))
        << what;
    EXPECT_TRUE(sameBits(a.model.busQueueLength, b.model.busQueueLength))
        << what;
    EXPECT_TRUE(sameBits(a.model.processorUtilization,
                         b.model.processorUtilization))
        << what;
    EXPECT_TRUE(
        sameBits(a.model.processingPower, b.model.processingPower))
        << what;
}

/**
 * One cell composed by hand from the layers' public functions, one
 * fresh trace and three full simulator runs per cell: generate the
 * trace, simulate the scheme, extract the parameters, solve the model.
 */
ValidationPoint
composedPoint(const ValidationConfig &config, CpuId cpus)
{
    const SyntheticWorkloadConfig workload = profileConfig(
        config.profile, cpus, config.instructionsPerCpu,
        config.seed + cpus, config.scheme == Scheme::SoftwareFlush);
    const TraceBuffer trace = generateTrace(workload);
    CacheConfig cache;
    cache.sizeBytes = config.cacheBytes;
    cache.blockBytes = workload.blockBytes;

    ValidationPoint point;
    point.profile = config.profile;
    point.scheme = config.scheme;
    point.cpus = cpus;
    point.cacheBytes = config.cacheBytes;
    MultiprocessorSystem system(config.scheme, cache, cpus,
                                workload.sharedClassifier());
    point.sim = system.run(trace);
    point.simPower = point.sim.processingPower();
    const ExtractedParams extracted =
        extractParams(trace, cache, workload.sharedClassifier());
    point.model = evaluateBus(config.scheme, extracted.params, cpus);
    point.modelPower = point.model.processingPower;
    return point;
}

/** Fresh, enabled memo around every test. */
class ValidationMemoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setSolverCacheEnabled(true);
        clearSolverCache();
    }

    void
    TearDown() override
    {
        setSolverCacheEnabled(true);
        clearSolverCache();
    }
};

TEST_F(ValidationMemoTest, EachTraceIsSimulatedOncePerScheme)
{
    // Three hardware traces (1..3 CPUs) carry seven schemes each and
    // three flush traces carry Software-Flush. Each trace costs its
    // extraction's Base and Dragon runs plus one run per other scheme:
    // 3 * (2 + 5) + 3 * (2 + 1) = 30. Re-extracting per cell would
    // cost 8 schemes * 3 runs * 3 CPU counts = 72.
    const std::uint64_t before = simRuns();
    validateEveryScheme(AppProfile::PeroLike, 3);
    EXPECT_EQ(simRuns() - before, 30u);

    // A second pass finds every extraction stored: only the schemes
    // other than Base and Dragon simulate, 3 * (5 + 1) = 18 runs.
    const std::uint64_t warm = simRuns();
    validateEveryScheme(AppProfile::PeroLike, 3);
    EXPECT_EQ(simRuns() - warm, 18u);
}

TEST_F(ValidationMemoTest, BaseAndDragonReuseExtractionRunsWithMemoOff)
{
    // Without the memo every cell extracts, but a Base or Dragon cell
    // still takes its simulation from that extraction: per CPU count
    // 2 cells * 2 runs + 6 cells * 3 runs = 22, so 66 over 1..3.
    setSolverCacheEnabled(false);
    const SolverCacheStats stats = solverCacheStats();
    const std::uint64_t before = simRuns();
    validateEveryScheme(AppProfile::PeroLike, 3);
    EXPECT_EQ(simRuns() - before, 66u);
    EXPECT_EQ(solverCacheStats().hits, stats.hits);
    EXPECT_EQ(solverCacheStats().misses, stats.misses);
}

TEST_F(ValidationMemoTest, PointsMatchTheComposedFlowColdWarmAndOff)
{
    for (AppProfile profile : kAllProfiles) {
        for (Scheme scheme : kAllSchemes) {
            const ValidationConfig config =
                shortConfig(profile, scheme, 2);
            clearSolverCache();
            const auto cold = validate(config);
            const auto warm = validate(config);
            setSolverCacheEnabled(false);
            const auto off = validate(config);
            setSolverCacheEnabled(true);
            ASSERT_EQ(cold.size(), 2u);
            ASSERT_EQ(warm.size(), 2u);
            ASSERT_EQ(off.size(), 2u);
            for (std::size_t i = 0; i < cold.size(); ++i) {
                const std::string what =
                    std::string(profileName(profile)) + "/" +
                    std::string(schemeName(scheme)) + " cpus=" +
                    std::to_string(i + 1);
                const ValidationPoint composed =
                    composedPoint(config, static_cast<CpuId>(i + 1));
                expectIdentical(cold[i], composed, what + " cold");
                expectIdentical(warm[i], composed, what + " warm");
                expectIdentical(off[i], composed, what + " off");
            }
        }
    }
}

TEST_F(ValidationMemoTest, KeyCoversEveryInputOfTheTraceAndItsExtraction)
{
    // With the base config's entries stored, a config that differs in
    // any one input of the trace or its extraction must extract
    // afresh: a key missing that input would serve the base entries.
    const ValidationConfig base =
        shortConfig(AppProfile::PopsLike, Scheme::Dragon, 2);
    std::vector<ValidationConfig> variants(5, base);
    variants[0].profile = AppProfile::ThorLike;
    variants[1].cacheBytes = 16 * 1024;
    variants[2].instructionsPerCpu = 3'000;
    variants[3].seed = base.seed + 10;
    variants[4].scheme = Scheme::SoftwareFlush; // Flush-bearing trace.
    validate(base);
    for (std::size_t v = 0; v < variants.size(); ++v) {
        const auto points = validate(variants[v]);
        ASSERT_EQ(points.size(), 2u);
        for (std::size_t i = 0; i < points.size(); ++i) {
            expectIdentical(
                points[i],
                composedPoint(variants[v], static_cast<CpuId>(i + 1)),
                "variant " + std::to_string(v));
        }
    }
}

TEST_F(ValidationMemoTest, EntriesFilledByOneSchemeServeTheOthers)
{
    // Every hardware-trace scheme reads the entries the first one
    // filled: after a No-Cache pass, Base and Dragon neither generate
    // nor simulate, and the rest simulate only their own scheme.
    validate(shortConfig(AppProfile::PopsLike, Scheme::NoCache, 3));
    const SolverCacheStats stats = solverCacheStats();
    const std::uint64_t before = simRuns();
    const auto base =
        validate(shortConfig(AppProfile::PopsLike, Scheme::Base, 3));
    const auto dragon =
        validate(shortConfig(AppProfile::PopsLike, Scheme::Dragon, 3));
    EXPECT_EQ(simRuns(), before);
    // Each cell hits its extraction; bus points are never stored.
    EXPECT_EQ(solverCacheStats().hits - stats.hits, 6u);
    for (std::size_t i = 0; i < base.size(); ++i) {
        const CpuId cpus = static_cast<CpuId>(i + 1);
        expectIdentical(
            base[i],
            composedPoint(
                shortConfig(AppProfile::PopsLike, Scheme::Base, 3), cpus),
            "base");
        expectIdentical(
            dragon[i],
            composedPoint(
                shortConfig(AppProfile::PopsLike, Scheme::Dragon, 3),
                cpus),
            "dragon");
    }
}

TEST_F(ValidationMemoTest, ArmedKillHookReadsAndFillsTheMemo)
{
    // The kill hook is counted inside runCells() and leaves the memo
    // alone. Warm, each MESI cell finds its extraction stored and
    // simulates MESI alone: 2 runs for 2 CPU counts, where a cell that
    // extracts costs 3.
    const ValidationConfig config =
        shortConfig(AppProfile::ThorLike, Scheme::Mesi, 2);
    const auto unarmed = validate(config);
    campaign::CampaignOptions armed;
    armed.faultSpec = "task-kill:1@100"; // Never fires on 2 cells.
    const SolverCacheStats warm = solverCacheStats();
    const std::uint64_t before = simRuns();
    const auto points = validate(config, armed);
    EXPECT_EQ(simRuns() - before, 2u);
    // Per cell: its extraction. Its bus point is solved, not stored.
    EXPECT_EQ(solverCacheStats().hits - warm.hits, 2u);
    ASSERT_EQ(points.size(), unarmed.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        expectIdentical(points[i], unarmed[i], "armed");
    }

    // From an empty memo an armed run fills it: an unarmed run after
    // it extracts nothing.
    clearSolverCache();
    validate(config, armed);
    const std::uint64_t filled = simRuns();
    validate(config);
    EXPECT_EQ(simRuns() - filled, 2u);
}

TEST(ValidationLimitTest, RejectsMoreCpusThanTheGeneratorHolds)
{
    // The limits are checked before any cell runs, so no cell
    // simulates. Zero processors would return no points at all.
    for (const CpuId cpus :
         {CpuId{0},
          static_cast<CpuId>(SyntheticWorkloadConfig::kMaxCpus + 1)}) {
        const std::uint64_t before = simRuns();
        EXPECT_THROW(validate(shortConfig(AppProfile::PopsLike,
                                          Scheme::Dragon, cpus)),
                     std::invalid_argument)
            << cpus;
        EXPECT_EQ(simRuns(), before) << cpus;
    }
}

/** validate()'s journal key of the cell at @p cpus processors. */
std::uint64_t
validateCellKey(const ValidationConfig &config, CpuId cpus)
{
    return campaign::CellKey("validate")
        .add(profileName(config.profile))
        .add(schemeName(config.scheme))
        .add(static_cast<std::uint64_t>(config.cacheBytes))
        .add(static_cast<std::uint64_t>(config.instructionsPerCpu))
        .add(config.seed)
        .add(std::uint64_t{cpus})
        .hash();
}

/** Same clean memo as ValidationMemoTest. */
using ValidationJournalTest = ValidationMemoTest;

TEST_F(ValidationJournalTest, KilledValidationResumesFromItsJournal)
{
    // Cells start as 1, 5, 4, 3, 2 CPUs. On one lane a kill at the
    // third task leaves the 1- and 5-CPU cells journaled, each keyed by
    // its CPU count; the resumed run evaluates only the other three
    // and returns the uninterrupted points bit for bit.
    const ValidationConfig config =
        shortConfig(AppProfile::PeroLike, Scheme::Mesi, 5);
    const std::vector<ValidationPoint> fresh = validate(config);

    campaign::CampaignOptions options;
    options.journalPath = ::testing::TempDir() + "/validate_kill.journal";
    std::remove(options.journalPath.c_str());
    options.faultSpec = "task-kill:1@2";
    setThreadCount(1);
    EXPECT_THROW(validate(config, options), campaign::TaskKilled);

    const auto journaled = campaign::Journal::load(options.journalPath);
    EXPECT_EQ(journaled.size(), 2u);
    EXPECT_EQ(journaled.count(validateCellKey(config, 1)), 1u);
    EXPECT_EQ(journaled.count(validateCellKey(config, 5)), 1u);

    options.faultSpec.clear();
    options.resume = true;
    campaign::CampaignReport report;
    const std::vector<ValidationPoint> resumed =
        validate(config, options, &report);
    setThreadCount(0);
    EXPECT_EQ(report.fromJournal, 2u);
    EXPECT_EQ(report.executed, 3u);

    ASSERT_EQ(resumed.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        const CpuId cpus = static_cast<CpuId>(i + 1);
        const std::string what = "cpus=" + std::to_string(cpus);
        EXPECT_EQ(resumed[i].cpus, cpus) << what;
        if (cpus == 1 || cpus == 5) {
            // From the journal: the powers alone.
            EXPECT_TRUE(sameBits(resumed[i].simPower, fresh[i].simPower))
                << what;
            EXPECT_TRUE(
                sameBits(resumed[i].modelPower, fresh[i].modelPower))
                << what;
            EXPECT_EQ(resumed[i].model.processors, 0u) << what;
        } else {
            expectIdentical(resumed[i], fresh[i], what);
        }
    }
}

TEST(ParallelValidationMemoTest, ConcurrentOverlappingValidationsAgree)
{
    // Four lanes validate every scheme twice over, in an interleaved
    // order, so lanes race to fill and read the same entries. Run
    // under tsan this is the memo's data-race gate; in any build the
    // points must equal a serial, memo-off reference bit for bit.
    setSolverCacheEnabled(false);
    const auto reference = validateEveryScheme(AppProfile::PopsLike, 3);
    setSolverCacheEnabled(true);
    clearSolverCache();

    constexpr std::size_t kTasks = 2 * kNumSchemes;
    std::vector<std::vector<ValidationPoint>> got(kTasks);
    setThreadCount(4);
    parallelFor(kTasks, [&](std::size_t task) {
        got[task] = validate(shortConfig(
            AppProfile::PopsLike, kAllSchemes[task % kNumSchemes], 3));
    });
    setThreadCount(0);
    clearSolverCache();

    for (std::size_t task = 0; task < kTasks; ++task) {
        const auto &expected = reference[task % kNumSchemes];
        ASSERT_EQ(got[task].size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            expectIdentical(got[task][i], expected[i],
                            "task " + std::to_string(task));
        }
    }
}

} // namespace
} // namespace swcc
