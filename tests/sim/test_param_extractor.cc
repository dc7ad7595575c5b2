/**
 * @file
 * Unit tests for workload-parameter extraction.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/obs/metrics.hh"
#include "sim/mp/param_extractor.hh"
#include "sim/mp/system.hh"
#include "sim/synth/app_profiles.hh"
#include "sim/synth/trace_generator.hh"

namespace swcc
{
namespace
{

CacheConfig
cache64k()
{
    CacheConfig c;
    c.sizeBytes = 64 * 1024;
    c.blockBytes = 16;
    return c;
}

class ExtractorTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workload_ = new SyntheticWorkloadConfig(
            profileConfig(AppProfile::PopsLike, 4, 60'000, 33, true));
        trace_ = new TraceBuffer(generateTrace(*workload_));
        extracted_ = new ExtractedParams(extractParams(
            *trace_, cache64k(), workload_->sharedClassifier()));
    }

    static void
    TearDownTestSuite()
    {
        delete extracted_;
        delete trace_;
        delete workload_;
    }

    static SyntheticWorkloadConfig *workload_;
    static TraceBuffer *trace_;
    static ExtractedParams *extracted_;
};

SyntheticWorkloadConfig *ExtractorTest::workload_ = nullptr;
TraceBuffer *ExtractorTest::trace_ = nullptr;
ExtractedParams *ExtractorTest::extracted_ = nullptr;

TEST_F(ExtractorTest, ExtractedParametersAreValid)
{
    EXPECT_NO_THROW(extracted_->params.validate());
}

TEST_F(ExtractorTest, DirectCountsComeFromTheTrace)
{
    EXPECT_DOUBLE_EQ(extracted_->params.ls, extracted_->traceStats.ls);
    EXPECT_DOUBLE_EQ(extracted_->params.shd,
                     extracted_->traceStats.shd);
    EXPECT_DOUBLE_EQ(extracted_->params.wr, extracted_->traceStats.wr);
    EXPECT_NEAR(extracted_->params.ls, workload_->ls, 0.03);
    EXPECT_NEAR(extracted_->params.shd, workload_->shd, 0.05);
}

TEST_F(ExtractorTest, MissRatesComeFromTheBaseSimulation)
{
    EXPECT_DOUBLE_EQ(extracted_->params.msdat,
                     extracted_->baseStats.dataMissRate());
    EXPECT_DOUBLE_EQ(extracted_->params.mains,
                     extracted_->baseStats.instrMissRate());
    EXPECT_DOUBLE_EQ(extracted_->params.md,
                     extracted_->baseStats.dirtyMissFraction());
    EXPECT_GT(extracted_->params.msdat, 0.0);
    EXPECT_LT(extracted_->params.msdat, 0.2);
    EXPECT_GT(extracted_->params.mains, 0.0);
    EXPECT_LT(extracted_->params.mains, 0.1);
}

TEST_F(ExtractorTest, SharingParametersComeFromTheDragonRun)
{
    const DragonMeasurements &m = extracted_->dragonMeasurements;
    EXPECT_GT(m.sharedMisses, 0u);
    EXPECT_GT(m.sharedWrites, 0u);
    EXPECT_DOUBLE_EQ(extracted_->params.oclean, m.oclean());
    EXPECT_DOUBLE_EQ(extracted_->params.opres, m.opres());
    EXPECT_GE(extracted_->params.oclean, 0.0);
    EXPECT_LE(extracted_->params.oclean, 1.0);
    EXPECT_GE(extracted_->params.nshd, 0.0);
}

TEST_F(ExtractorTest, RunStatisticsMatchFreshRunsOfTheTrace)
{
    // Validation takes its Base and Dragon cells' statistics from
    // these runs, so each must equal that scheme's own run of the
    // trace, with or without the classifier.
    const SharedClassifier shared = workload_->sharedClassifier();
    for (const SharedClassifier &classifier :
         {shared, SharedClassifier{}}) {
        EXPECT_EQ(extracted_->dragonStats.serialize(),
                  MultiprocessorSystem(Scheme::Dragon, cache64k(), 4,
                                       classifier)
                      .run(*trace_)
                      .serialize());
        EXPECT_EQ(extracted_->baseStats.serialize(),
                  MultiprocessorSystem(Scheme::Base, cache64k(), 4,
                                       classifier)
                      .run(*trace_)
                      .serialize());
    }
}

TEST_F(ExtractorTest, FlushBearingTraceYieldsMeasuredMdshd)
{
    ASSERT_TRUE(extracted_->traceStats.mdshd.has_value());
    EXPECT_DOUBLE_EQ(extracted_->params.mdshd,
                     *extracted_->traceStats.mdshd);
}

TEST(ExtractorDefaultsTest, HardwareTraceFallsBackForMdshd)
{
    // A trace without flushes cannot expose mdshd; the Table 7 middle
    // value stands in.
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::ThorLike, 2, 10'000, 7, false);
    const TraceBuffer trace = generateTrace(workload);
    const ExtractedParams extracted =
        extractParams(trace, cache64k(), workload.sharedClassifier());
    EXPECT_FALSE(extracted.traceStats.mdshd.has_value());
    EXPECT_DOUBLE_EQ(extracted.params.mdshd, 0.25);
}

TEST(ExtractorDefaultsTest, DynamicSharingWorksWithoutClassifier)
{
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PopsLike, 4, 20'000, 13, false);
    const TraceBuffer trace = generateTrace(workload);
    const ExtractedParams extracted = extractParams(trace, cache64k());
    EXPECT_NO_THROW(extracted.params.validate());
    EXPECT_GT(extracted.params.shd, 0.0);
    // Dynamic sharing is a subset of the marked region.
    const ExtractedParams marked = extractParams(
        trace, cache64k(), workload.sharedClassifier());
    EXPECT_LE(extracted.params.shd, marked.params.shd + 1e-12);
}

/** The extract.fallback.<param> counters, keyed by param. */
std::map<std::string, double>
fallbackCounts()
{
    const std::string prefix = "extract.fallback.";
    std::map<std::string, double> out;
    for (const char *param : {"apl", "mdshd", "oclean", "opres", "nshd"}) {
        out[param] = 0.0;
    }
    for (const obs::MetricSnapshot &snap : obs::metrics().snapshot()) {
        if (snap.name.starts_with(prefix)) {
            out[snap.name.substr(prefix.size())] = snap.value;
        }
    }
    return out;
}

/**
 * Two CPUs taking turns on one block: each turn loads it, optionally
 * stores to it, and ends with a fetched flush of it.
 */
TraceBuffer
pingPongTrace(bool stores)
{
    constexpr Addr kBlock = 0x1000;
    TraceBuffer trace;
    for (int turn = 0; turn < 64; ++turn) {
        for (CpuId cpu = 0; cpu < 2; ++cpu) {
            const Addr code = 0x100 * (cpu + 1u);
            trace.append(cpu, RefType::IFetch, code);
            trace.append(cpu, RefType::Load, kBlock);
            if (stores) {
                trace.append(cpu, RefType::Store, kBlock);
            }
            trace.append(cpu, RefType::IFetch, code + 4);
            trace.append(cpu, RefType::Flush, kBlock);
        }
    }
    return trace;
}

TEST(ExtractorDefaultsTest, FallbacksAreCountedPerParameter)
{
    // Without stores there are no write runs (apl), no shared writes
    // (opres) and no broadcasts (nshd); the flushes and the first
    // shared misses still measure mdshd and oclean.
    const TraceBuffer readOnly = pingPongTrace(false);
    for (int call = 1; call <= 2; ++call) {
        const std::map<std::string, double> before = fallbackCounts();
        (void)extractParams(readOnly, cache64k());
        const std::map<std::string, double> after = fallbackCounts();
        EXPECT_EQ(after.at("apl") - before.at("apl"), 1.0) << call;
        EXPECT_EQ(after.at("opres") - before.at("opres"), 1.0) << call;
        EXPECT_EQ(after.at("nshd") - before.at("nshd"), 1.0) << call;
        EXPECT_EQ(after.at("mdshd"), before.at("mdshd")) << call;
        EXPECT_EQ(after.at("oclean"), before.at("oclean")) << call;
    }

    // With stores the trace measures all five: no counter moves.
    const std::map<std::string, double> before = fallbackCounts();
    const ExtractedParams measured =
        extractParams(pingPongTrace(true), cache64k());
    EXPECT_EQ(fallbackCounts(), before);
    EXPECT_TRUE(measured.traceStats.apl.has_value());
    EXPECT_TRUE(measured.traceStats.mdshd.has_value());
    EXPECT_GT(measured.dragonMeasurements.broadcasts, 0u);
}

TEST(ExtractorDefaultsTest, SingleCpuTraceHasNoSharing)
{
    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PopsLike, 1, 10'000, 3, false);
    const TraceBuffer trace = generateTrace(workload);
    const ExtractedParams extracted = extractParams(trace, cache64k());
    EXPECT_DOUBLE_EQ(extracted.params.shd, 0.0);
}

} // namespace
} // namespace swcc
