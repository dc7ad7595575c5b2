/**
 * @file
 * Metrics registry: counters and gauges.
 *
 * Each thread records into its own shard — a flat array of relaxed
 * atomic cells allocated on first touch — so recording never takes a
 * lock and never shares a cache line with another thread. Shards are
 * merged only at snapshot time (export, end of run), which is the one
 * moment the registry mutex is held.
 *
 * Metric objects are registered by name and live for the process
 * lifetime; hot call sites should cache the reference once:
 *
 * @code
 *   static obs::Counter &solves =
 *       obs::metrics().counter("solver.bus.solves");
 *   solves.add();
 * @endcode
 *
 * Distributions are not registry metrics: they are recorded in
 * single-writer obs::Histogram instances (histogram.hh) whose
 * snapshots share the MetricSnapshot type below.
 */

#ifndef SWCC_CORE_OBS_METRICS_HH
#define SWCC_CORE_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace swcc::obs
{

class MetricsRegistry;

/**
 * One merged metric as reported by MetricsRegistry::snapshot(), or a
 * histogram converted by Histogram::snapshot().
 */
struct MetricSnapshot
{
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram,
    };

    std::string name;
    Kind kind = Kind::Counter;

    /** Counter total or gauge value. */
    double value = 0.0;

    /** Histogram bucket upper bounds (last bucket is +inf). */
    std::vector<double> bounds;
    /** Histogram bucket counts; bounds.size() + 1 entries. */
    std::vector<std::uint64_t> counts;
    /** Histogram observation count. */
    std::uint64_t count = 0;
    /** Histogram observation sum. */
    double sum = 0.0;
};

/** A monotonic counter. */
class Counter
{
  public:
    /** Adds @p n; lock-free, wait-free per thread. */
    inline void add(std::uint64_t n = 1);

  private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry &owner, std::uint32_t cell)
        : owner_(&owner), cell_(cell)
    {
    }

    MetricsRegistry *owner_;
    std::uint32_t cell_;
};

/** A last-write-wins instantaneous value (single global cell). */
class Gauge
{
  public:
    inline void set(double value);
    inline double value() const;

  private:
    friend class MetricsRegistry;
    Gauge() = default;

    std::atomic<double> value_{0.0};
};

/**
 * The process-wide metric registry (see file comment).
 *
 * Registration (counter()/gauge()) takes the registry mutex and is
 * idempotent by name; recording through the returned objects is
 * lock-free.
 */
class MetricsRegistry
{
  public:
    /** Cells available across all counters. */
    static constexpr std::uint32_t kMaxCells = 4096;

    /**
     * The named counter, created on first use.
     * @throws std::logic_error if @p name is registered as another
     *         kind, or the cell space is exhausted.
     */
    Counter &counter(std::string_view name);

    /** The named gauge, created on first use. */
    Gauge &gauge(std::string_view name);

    /** Merges all shards into one value per metric, sorted by name. */
    std::vector<MetricSnapshot> snapshot() const;

    /** Zeroes every cell and gauge; registrations persist. Tests. */
    void resetForTest();

    /** @internal Hot-path cell accessor (this thread's shard). */
    std::atomic<std::uint64_t> &cell(std::uint32_t idx);

  private:
    friend MetricsRegistry &metrics();
    MetricsRegistry() = default;

    struct Shard
    {
        std::vector<std::atomic<std::uint64_t>> cells;
        Shard() : cells(kMaxCells) {}
    };

    struct Entry
    {
        std::string name;
        MetricSnapshot::Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
    };

    Shard &localShard();
    Entry *findEntry(std::string_view name);

    mutable std::mutex mutex_;
    std::vector<Entry> entries_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::uint32_t nextCell_ = 0;
};

/** The process-wide registry. */
MetricsRegistry &metrics();

inline void
Counter::add(std::uint64_t n)
{
    owner_->cell(cell_).fetch_add(n, std::memory_order_relaxed);
}

inline void
Gauge::set(double value)
{
    value_.store(value, std::memory_order_relaxed);
}

inline double
Gauge::value() const
{
    return value_.load(std::memory_order_relaxed);
}

/**
 * Serializes a snapshot of the process registry as JSON
 * (`{"metrics": [...]}`) or CSV (name,kind,value rows).
 */
void writeMetricsJson(std::ostream &os);
void writeMetricsCsv(std::ostream &os);

/**
 * Writes the registry snapshot to @p path — CSV when the path ends in
 * ".csv", JSON otherwise. Returns @p path.
 * @throws std::runtime_error if the file cannot be written.
 */
std::string writeMetricsFile(const std::string &path);

} // namespace swcc::obs

#endif // SWCC_CORE_OBS_METRICS_HH
