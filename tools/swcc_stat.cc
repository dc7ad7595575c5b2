/**
 * @file
 * swcc_stat — live telemetry viewer for a running swccd.
 *
 * Connects to the daemon's unix socket, issues Scrape requests on an
 * interval, and renders either a TTY dashboard (QPS, p50/p99/p999,
 * queue depth — recomputed from deltas between consecutive scrapes)
 * or a CSV time series for offline plotting.
 *
 * Usage:
 *   swcc_stat --socket PATH [--interval-ms N] [--count N] [--csv]
 *   swcc_stat --socket PATH --raw
 *
 * --raw prints one scrape verbatim after validating that it parses
 * as Prometheus text exposition (nonzero exit otherwise) — the CI
 * smoke job uses it as a format check.
 *
 * Quantiles are derived from the daemon's cumulative
 * `service_request_us_bucket{le=...}` series: the per-interval delta
 * of each cumulative bucket count is itself a histogram of just that
 * interval's requests, so the dashboard shows *current* latency, not
 * the lifetime aggregate.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "service/client.hh"

namespace
{

/** One parsed scrape: scalar samples plus histogram bucket series. */
struct Sample
{
    /** name -> value for label-free samples (counters, gauges). */
    std::map<std::string, double> values;
    /** family -> (le -> cumulative count) for *_bucket series. */
    std::map<std::string, std::map<double, double>> buckets;
};

bool
parseDouble(const std::string &text, double &out)
{
    try {
        std::size_t end = 0;
        out = std::stod(text, &end);
        while (end < text.size() &&
               (text[end] == ' ' || text[end] == '\t')) {
            ++end;
        }
        return end == text.size();
    } catch (const std::exception &) {
        return false;
    }
}

/**
 * Parses Prometheus text exposition. Returns false (with @p error)
 * on any line that is neither a comment nor `name[{labels}] value`.
 */
bool
parseScrape(const std::string &text, Sample &out, std::string &error)
{
    std::size_t pos = 0;
    int lineno = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) {
            eol = text.size();
        }
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++lineno;
        if (line.empty() || line[0] == '#') {
            continue;
        }
        const std::size_t brace = line.find('{');
        const std::size_t space = line.find(' ');
        if (space == std::string::npos) {
            error = "line " + std::to_string(lineno) +
                ": no value: " + line;
            return false;
        }
        double value = 0.0;
        if (brace != std::string::npos && brace < space) {
            const std::size_t close = line.find('}', brace);
            if (close == std::string::npos || close + 2 > line.size() ||
                line[close + 1] != ' ') {
                error = "line " + std::to_string(lineno) +
                    ": malformed labels: " + line;
                return false;
            }
            if (!parseDouble(line.substr(close + 2), value)) {
                error = "line " + std::to_string(lineno) +
                    ": bad value: " + line;
                return false;
            }
            const std::string name = line.substr(0, brace);
            const std::string labels =
                line.substr(brace + 1, close - brace - 1);
            // The daemon only emits one label: le="...".
            if (name.ends_with("_bucket") &&
                labels.starts_with("le=\"") && labels.ends_with("\"")) {
                const std::string le =
                    labels.substr(4, labels.size() - 5);
                const double bound = le == "+Inf"
                    ? std::numeric_limits<double>::infinity()
                    : [&] {
                          double b = 0.0;
                          parseDouble(le, b);
                          return b;
                      }();
                out.buckets[name.substr(0, name.size() - 7)][bound] =
                    value;
            }
            continue;
        }
        if (!parseDouble(line.substr(space + 1), value)) {
            error = "line " + std::to_string(lineno) +
                ": bad value: " + line;
            return false;
        }
        out.values[line.substr(0, space)] = value;
    }
    return true;
}

double
valueOr(const Sample &sample, const std::string &name,
        double fallback = 0.0)
{
    const auto it = sample.values.find(name);
    return it == sample.values.end() ? fallback : it->second;
}

/** Cumulative count at @p bound in a (le -> count) step function. */
double
cumulativeAt(const std::map<double, double> &cumulative, double bound)
{
    auto it = cumulative.upper_bound(bound);
    if (it == cumulative.begin()) {
        return 0.0;
    }
    return std::prev(it)->second;
}

/**
 * Quantile of the requests recorded between @p prev and @p cur: the
 * smallest `le` whose interval delta covers the target rank.
 * Returns 0 when the interval saw no requests.
 */
double
deltaQuantile(const std::map<double, double> &cur,
              const std::map<double, double> *prev, double q)
{
    const auto delta = [&](double bound, double cumulativeCount) {
        return cumulativeCount -
            (prev != nullptr ? cumulativeAt(*prev, bound) : 0.0);
    };
    double total = 0.0;
    for (const auto &[bound, count] : cur) {
        if (std::isinf(bound)) {
            total = delta(bound, count);
        }
    }
    if (total <= 0.0) {
        return 0.0;
    }
    const double target = std::max(1.0, std::ceil(q * total));
    double last = 0.0;
    for (const auto &[bound, count] : cur) {
        last = bound;
        if (delta(bound, count) >= target) {
            return bound;
        }
    }
    return last;
}

struct Options
{
    std::string socket;
    int intervalMs = 1000;
    /** 0 = run until the daemon goes away or the user interrupts. */
    unsigned count = 0;
    bool csv = false;
    bool raw = false;
};

int
usage(std::ostream &out, int code)
{
    out << "usage: swcc_stat --socket PATH [--interval-ms N]\n"
           "                 [--count N] [--csv] [--raw]\n"
           "  --csv   emit a CSV time series instead of a dashboard\n"
           "  --raw   print one scrape verbatim after validating it\n";
    return code;
}

std::string
formatUs(double us)
{
    char buffer[32];
    if (us >= 1e6) {
        std::snprintf(buffer, sizeof buffer, "%.2fs", us / 1e6);
    } else if (us >= 1e3) {
        std::snprintf(buffer, sizeof buffer, "%.2fms", us / 1e3);
    } else {
        std::snprintf(buffer, sizeof buffer, "%.0fus", us);
    }
    return buffer;
}

void
printDashboard(double elapsed, double qps, double batchesPerSec,
               double avgBatch, double p50, double p99, double p999,
               const Sample &sample)
{
    // Repaint in place: clear screen, home the cursor.
    std::cout << "\x1b[2J\x1b[H";
    std::cout << "swcc_stat — swccd live telemetry (t+"
              << static_cast<long>(elapsed) << "s)\n\n";
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %-18s %12.0f\n", "QPS", qps);
    std::cout << line;
    std::snprintf(line, sizeof line, "  %-18s %12.1f (avg size %.1f)\n",
                  "batches/s", batchesPerSec, avgBatch);
    std::cout << line;
    std::cout << "  " << "p50 / p99 / p999   " << formatUs(p50)
              << " / " << formatUs(p99) << " / " << formatUs(p999)
              << "\n";
    std::snprintf(line, sizeof line, "  %-18s %12.0f\n", "queue depth",
                  valueOr(sample, "service_queue_depth"));
    std::cout << line;
    std::snprintf(line, sizeof line, "  %-18s %12.0f\n", "in-flight",
                  valueOr(sample, "service_inflight"));
    std::cout << line;
    std::snprintf(line, sizeof line, "  %-18s %12.0f\n", "connections",
                  valueOr(sample, "service_connections_active"));
    std::cout << line;
    std::snprintf(line, sizeof line, "  %-18s %12.0f\n",
                  "queries total",
                  valueOr(sample, "service_queries_total"));
    std::cout << line;
    std::cout.flush();
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const std::string &flag) {
            if (i + 1 >= argc) {
                throw std::invalid_argument(flag + " needs a value");
            }
            return std::string(argv[++i]);
        };
        try {
            if (arg == "--socket") {
                options.socket = value(arg);
            } else if (arg == "--interval-ms") {
                options.intervalMs = std::stoi(value(arg));
                if (options.intervalMs < 10) {
                    options.intervalMs = 10;
                }
            } else if (arg == "--count") {
                options.count = static_cast<unsigned>(
                    std::stoul(value(arg)));
            } else if (arg == "--csv") {
                options.csv = true;
            } else if (arg == "--raw") {
                options.raw = true;
            } else if (arg == "--help" || arg == "-h") {
                return usage(std::cout, 0);
            } else {
                std::cerr << "swcc_stat: unknown flag " << arg
                          << "\n";
                return usage(std::cerr, 2);
            }
        } catch (const std::exception &e) {
            std::cerr << "swcc_stat: " << e.what() << "\n";
            return 2;
        }
    }
    if (options.socket.empty()) {
        std::cerr << "swcc_stat: --socket is required\n";
        return usage(std::cerr, 2);
    }

    swcc::service::ServiceClient client;
    try {
        client.connect(options.socket);
    } catch (const std::exception &e) {
        std::cerr << "swcc_stat: " << e.what() << "\n";
        return 1;
    }

    if (options.raw) {
        try {
            const std::string text = client.scrape();
            Sample sample;
            std::string error;
            if (!parseScrape(text, sample, error)) {
                std::cerr << "swcc_stat: scrape does not parse: "
                          << error << "\n";
                return 1;
            }
            std::cout << text;
        } catch (const std::exception &e) {
            std::cerr << "swcc_stat: " << e.what() << "\n";
            return 1;
        }
        return 0;
    }

    const bool tty = ::isatty(STDOUT_FILENO) != 0;
    const bool csv = options.csv || !tty;
    if (csv) {
        std::cout << "elapsed_s,qps,p50_us,p99_us,p999_us,"
                     "queue_depth,inflight\n";
    }

    std::optional<Sample> prev;
    double elapsed = 0.0;
    const double interval = options.intervalMs / 1000.0;
    // Baseline scrape before the first interval: without it the first
    // row's "delta" would be the daemon's lifetime cumulative counts
    // crammed into one interval (absurd QPS against a long-running
    // daemon). Every reported row is a true interval delta.
    {
        Sample baseline;
        std::string error;
        try {
            if (!parseScrape(client.scrape(), baseline, error)) {
                std::cerr << "swcc_stat: scrape does not parse: "
                          << error << "\n";
                return 1;
            }
        } catch (const std::exception &e) {
            std::cerr << "swcc_stat: daemon gone: " << e.what()
                      << "\n";
            return 1;
        }
        prev = std::move(baseline);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.intervalMs));
    }
    for (unsigned tick = 0; options.count == 0 ||
         tick < options.count;
         ++tick) {
        Sample sample;
        try {
            std::string error;
            if (!parseScrape(client.scrape(), sample, error)) {
                std::cerr << "swcc_stat: scrape does not parse: "
                          << error << "\n";
                return 1;
            }
        } catch (const std::exception &e) {
            std::cerr << "swcc_stat: daemon gone: " << e.what()
                      << "\n";
            return tick == 0 ? 1 : 0;
        }

        const auto deltaOf = [&](const std::string &name) {
            const double now = valueOr(sample, name);
            return prev ? now - valueOr(*prev, name) : now;
        };
        const double dt = prev ? interval : std::max(interval, 1e-9);
        const double qps = deltaOf("service_queries_total") / dt;
        const double batchesPerSec =
            deltaOf("service_batches_total") / dt;
        const double avgBatch = batchesPerSec > 0.0
            ? qps / batchesPerSec
            : 0.0;

        const auto requestBuckets =
            sample.buckets.find("service_request_us");
        const std::map<double, double> empty;
        const std::map<double, double> &cur =
            requestBuckets == sample.buckets.end()
            ? empty
            : requestBuckets->second;
        const std::map<double, double> *prevBuckets = nullptr;
        if (prev) {
            const auto it = prev->buckets.find("service_request_us");
            if (it != prev->buckets.end()) {
                prevBuckets = &it->second;
            }
        }
        const double p50 = deltaQuantile(cur, prevBuckets, 0.50);
        const double p99 = deltaQuantile(cur, prevBuckets, 0.99);
        const double p999 = deltaQuantile(cur, prevBuckets, 0.999);

        if (csv) {
            char line[256];
            std::snprintf(line, sizeof line,
                          "%.1f,%.0f,%.1f,%.1f,%.1f,%.0f,%.0f\n",
                          elapsed, qps, p50, p99, p999,
                          valueOr(sample, "service_queue_depth"),
                          valueOr(sample, "service_inflight"));
            std::cout << line << std::flush;
        } else {
            printDashboard(elapsed, qps, batchesPerSec, avgBatch, p50,
                           p99, p999, sample);
        }

        prev = std::move(sample);
        elapsed += interval;
        if (options.count == 0 || tick + 1 < options.count) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(options.intervalMs));
        }
    }
    return 0;
}
