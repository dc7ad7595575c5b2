#include "core/obs/metrics.hh"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/campaign/atomic_file.hh"
#include "core/obs/json.hh"
#include "core/obs/prometheus.hh"

namespace swcc::obs
{

namespace
{

/** Shortest round-trip double rendering, always finite-safe. */
std::string
renderNumber(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

/** A registry metric's kind: the registry holds no histograms. */
const char *
kindName(MetricSnapshot::Kind kind)
{
    return kind == MetricSnapshot::Kind::Counter ? "counter" : "gauge";
}

/** RFC-4180 quoting for fields containing separators or quotes. */
std::string
csvEscape(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos) {
        return field;
    }
    std::string out = "\"";
    for (const char c : field) {
        if (c == '"') {
            out += '"';
        }
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

MetricsRegistry &
metrics()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Entry *
MetricsRegistry::findEntry(std::string_view name)
{
    for (Entry &entry : entries_) {
        if (entry.name == name) {
            return &entry;
        }
    }
    return nullptr;
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (Entry *existing = findEntry(name)) {
        if (existing->kind != MetricSnapshot::Kind::Counter) {
            throw std::logic_error(
                "metric '" + std::string(name) +
                "' already registered as a different kind");
        }
        return *existing->counter;
    }
    if (nextCell_ >= kMaxCells) {
        throw std::logic_error("metric cell space exhausted");
    }
    Entry entry;
    entry.name = std::string(name);
    entry.kind = MetricSnapshot::Kind::Counter;
    entry.counter.reset(new Counter(*this, nextCell_++));
    entries_.push_back(std::move(entry));
    return *entries_.back().counter;
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (Entry *existing = findEntry(name)) {
        if (existing->kind != MetricSnapshot::Kind::Gauge) {
            throw std::logic_error(
                "metric '" + std::string(name) +
                "' already registered as a different kind");
        }
        return *existing->gauge;
    }
    Entry entry;
    entry.name = std::string(name);
    entry.kind = MetricSnapshot::Kind::Gauge;
    entry.gauge.reset(new Gauge());
    entries_.push_back(std::move(entry));
    return *entries_.back().gauge;
}

MetricsRegistry::Shard &
MetricsRegistry::localShard()
{
    // The raw cached pointer is safe because shards are owned by the
    // (process-lifetime) registry and never deallocated.
    thread_local Shard *cached = nullptr;
    if (cached == nullptr) {
        auto shard = std::make_unique<Shard>();
        cached = shard.get();
        std::lock_guard<std::mutex> lock(mutex_);
        shards_.push_back(std::move(shard));
    }
    return *cached;
}

std::atomic<std::uint64_t> &
MetricsRegistry::cell(std::uint32_t idx)
{
    return localShard().cells[idx];
}

std::vector<MetricSnapshot>
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);

    const auto cellTotal = [&](std::uint32_t idx) {
        std::uint64_t total = 0;
        for (const auto &shard : shards_) {
            total += shard->cells[idx].load(std::memory_order_relaxed);
        }
        return total;
    };

    std::vector<MetricSnapshot> out;
    out.reserve(entries_.size());
    for (const Entry &entry : entries_) {
        MetricSnapshot snap;
        snap.name = entry.name;
        snap.kind = entry.kind;
        snap.value = entry.kind == MetricSnapshot::Kind::Counter
            ? static_cast<double>(cellTotal(entry.counter->cell_))
            : entry.gauge->value();
        out.push_back(std::move(snap));
    }
    std::sort(out.begin(), out.end(),
              [](const MetricSnapshot &a, const MetricSnapshot &b) {
                  return a.name < b.name;
              });
    return out;
}

void
MetricsRegistry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        for (auto &c : shard->cells) {
            c.store(0, std::memory_order_relaxed);
        }
    }
    for (Entry &entry : entries_) {
        if (entry.kind == MetricSnapshot::Kind::Gauge) {
            entry.gauge->set(0.0);
        }
    }
}

void
writeMetricsJson(std::ostream &os)
{
    const auto snaps = metrics().snapshot();
    os << "{\"metrics\":[";
    bool first = true;
    for (const MetricSnapshot &snap : snaps) {
        if (!first) {
            os << ',';
        }
        first = false;
        os << "{\"name\":\"" << jsonEscape(snap.name)
           << "\",\"kind\":\"" << kindName(snap.kind)
           << "\",\"value\":" << renderNumber(snap.value) << '}';
    }
    os << "]}\n";
}

void
writeMetricsCsv(std::ostream &os)
{
    os << "name,kind,value\n";
    for (const MetricSnapshot &snap : metrics().snapshot()) {
        os << csvEscape(snap.name) << ',' << kindName(snap.kind) << ','
           << renderNumber(snap.value) << '\n';
    }
}

std::string
writeMetricsFile(const std::string &path)
{
    campaign::atomicWriteFile(path, [&](std::ostream &os) {
        if (path.ends_with(".csv")) {
            writeMetricsCsv(os);
        } else if (path.ends_with(".prom")) {
            writeMetricsPrometheus(os);
        } else {
            writeMetricsJson(os);
        }
    });
    return path;
}

} // namespace swcc::obs
