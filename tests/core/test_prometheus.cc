/**
 * @file
 * Unit tests for the Prometheus text-exposition renderer
 * (src/core/obs/prometheus.hh): name sanitization, label escaping,
 * counter `_total` suffixing, histogram expansion to cumulative
 * buckets with the mandatory `+Inf`, and the registry export path
 * beside an obs::Histogram snapshot.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/obs/histogram.hh"
#include "core/obs/metrics.hh"
#include "core/obs/prometheus.hh"

namespace swcc
{
namespace
{

TEST(PrometheusTest, MetricNameSanitization)
{
    EXPECT_EQ(obs::promMetricName("service.queue_wait_us"),
              "service_queue_wait_us");
    EXPECT_EQ(obs::promMetricName("solver_cache.hits"),
              "solver_cache_hits");
    EXPECT_EQ(obs::promMetricName("already_legal:name"),
              "already_legal:name");
    EXPECT_EQ(obs::promMetricName("spaces and-dashes"),
              "spaces_and_dashes");
    EXPECT_EQ(obs::promMetricName("9starts_with_digit"),
              "_9starts_with_digit");
    EXPECT_EQ(obs::promMetricName(""), "_");
}

TEST(PrometheusTest, LabelEscaping)
{
    EXPECT_EQ(obs::promEscapeLabel("plain"), "plain");
    EXPECT_EQ(obs::promEscapeLabel("say \"hi\""),
              "say \\\"hi\\\"");
    EXPECT_EQ(obs::promEscapeLabel("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::promEscapeLabel("line\nbreak"), "line\\nbreak");
}

TEST(PrometheusTest, CounterGainsTotalSuffixExactlyOnce)
{
    obs::MetricSnapshot snap;
    snap.name = "service.queries";
    snap.kind = obs::MetricSnapshot::Kind::Counter;
    snap.value = 42.0;
    EXPECT_EQ(obs::promFamilyName(snap), "service_queries_total");

    std::string out;
    obs::appendPrometheus(out, snap);
    EXPECT_NE(out.find("# TYPE service_queries_total counter\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("service_queries_total 42\n"),
              std::string::npos)
        << out;

    // A name already ending in _total is not double-suffixed.
    snap.name = "service.queries_total";
    EXPECT_EQ(obs::promFamilyName(snap), "service_queries_total");
}

TEST(PrometheusTest, GaugeKeepsItsName)
{
    obs::MetricSnapshot snap;
    snap.name = "service.inflight";
    snap.kind = obs::MetricSnapshot::Kind::Gauge;
    snap.value = 3.0;
    EXPECT_EQ(obs::promFamilyName(snap), "service_inflight");
    std::string out;
    obs::appendPrometheus(out, snap);
    EXPECT_EQ(out,
              "# TYPE service_inflight gauge\n"
              "service_inflight 3\n");
}

TEST(PrometheusTest, HistogramIsCumulativeWithInfBucket)
{
    // Registry snapshots carry per-bucket (non-cumulative) counts
    // with an implicit overflow bucket; the exposition format wants
    // cumulative counts and an explicit +Inf.
    obs::MetricSnapshot snap;
    snap.name = "service.request_us";
    snap.kind = obs::MetricSnapshot::Kind::Histogram;
    snap.bounds = {10.0, 100.0, 1000.0};
    snap.counts = {3, 2, 1, 4}; // last entry: > 1000 (overflow)
    snap.count = 10;
    snap.sum = 5432.5;

    std::string out;
    obs::appendPrometheus(out, snap);
    EXPECT_EQ(out,
              "# TYPE service_request_us histogram\n"
              "service_request_us_bucket{le=\"10\"} 3\n"
              "service_request_us_bucket{le=\"100\"} 5\n"
              "service_request_us_bucket{le=\"1000\"} 6\n"
              "service_request_us_bucket{le=\"+Inf\"} 10\n"
              "service_request_us_sum 5432.5\n"
              "service_request_us_count 10\n");
}

TEST(PrometheusTest, RenderConcatenatesFamilies)
{
    obs::MetricSnapshot counter;
    counter.name = "a.hits";
    counter.kind = obs::MetricSnapshot::Kind::Counter;
    counter.value = 1.0;
    obs::MetricSnapshot gauge;
    gauge.name = "b.depth";
    gauge.kind = obs::MetricSnapshot::Kind::Gauge;
    gauge.value = 2.0;
    const std::string out = obs::renderPrometheus({counter, gauge});
    EXPECT_NE(out.find("a_hits_total 1\n"), std::string::npos) << out;
    EXPECT_NE(out.find("b_depth 2\n"), std::string::npos) << out;
    EXPECT_LT(out.find("a_hits_total"), out.find("b_depth"));
}

TEST(PrometheusTest, RegistryExportRendersEveryKind)
{
    obs::metrics().resetForTest();
    obs::metrics().counter("test.prom.events").add(5);
    obs::metrics().gauge("test.prom.level").set(1.5);
    obs::Histogram latency;
    latency.record(4);

    std::ostringstream os;
    obs::writeMetricsPrometheus(os);
    std::string out = os.str();
    obs::appendPrometheus(out, latency.snapshot("test.prom.lat_us"));

    EXPECT_NE(out.find("# TYPE test_prom_events_total counter\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("# TYPE test_prom_lat_us histogram\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("test_prom_lat_us_bucket{le=\"+Inf\"} "),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("test_prom_events_total 5\n"), std::string::npos)
        << out;
    EXPECT_NE(out.find("test_prom_level 1.5\n"), std::string::npos)
        << out;
    EXPECT_NE(out.find("test_prom_lat_us_bucket{le=\"4\"} 1\n"),
              std::string::npos)
        << out;
    // No raw dots may leak into metric names: every line must start
    // with a legal name or a comment.
    std::istringstream lines(out);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        const std::string name = line.substr(0, line.find_first_of(" {"));
        EXPECT_EQ(name.find('.'), std::string::npos) << line;
    }
}

} // namespace
} // namespace swcc
