#include "core/obs/metrics.hh"
#include "workloads.hh"

namespace perfbench
{

std::map<std::string, double>
registryValues()
{
    std::map<std::string, double> out;
    for (const swcc::obs::MetricSnapshot &snap :
         swcc::obs::metrics().snapshot()) {
        if (snap.kind != swcc::obs::MetricSnapshot::Kind::Histogram) {
            out[snap.name] = snap.value;
        }
    }
    return out;
}

double
registryDelta(const std::map<std::string, double> &a,
              const std::map<std::string, double> &b,
              const std::string &name)
{
    const auto value = [&name](const std::map<std::string, double> &m) {
        const auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second;
    };
    return value(b) - value(a);
}

void
emitLayerMetrics(const std::map<std::string, double> &layers,
                 Result &result)
{
    for (const auto &[name, value] : layers) {
        result.metric(name, value);
    }
}

void
emitSpanTotals(double passes, Result &result)
{
    for (const auto &[name, totals] : spanLog().totals()) {
        result.info("span." + name + ".count",
                    static_cast<double>(totals.count) / passes);
        result.info("span." + name + ".total_ms", totals.totalMs / passes);
        result.info("span." + name + ".self_ms", totals.selfMs / passes);
    }
}

void
emitBatchMetrics(const OpTimes &latency, double rss_mb, Result &result)
{
    const std::vector<double> medians = latency.medians();
    double passUs = 0.0;
    for (double us : medians) {
        passUs += us;
    }
    result.metric("run_s", passUs * 1e-6);
    result.metric("qps", static_cast<double>(medians.size()) / (passUs * 1e-6));
    result.metric("p50_us", quantile(medians, 0.50));
    result.metric("p99_us", quantile(medians, 0.99));
    result.metric("rss_mb", rss_mb);
    result.info("latency_samples", static_cast<double>(latency.count()));
}

double
overheadPct(const std::vector<double> &untraced,
            const std::vector<double> &traced)
{
    const double base = median(std::vector<double>(
        untraced.begin() + (untraced.size() > 1 ? 1 : 0), untraced.end()));
    return base > 0.0 ? 100.0 * (median(traced) - base) / base : 0.0;
}

} // namespace perfbench
