/**
 * @file
 * HdrHistogram-style log-linear histogram: the one distribution type.
 *
 * Values (non-negative integers; latencies are nanoseconds) are
 * bucketed by a log2 group with 64 linear sub-buckets per group,
 * bounding the relative quantization error at ~1.6% while covering
 * the full 64-bit range in a fixed 1.9k-bucket array. Recording is two
 * shifts and an increment — cheap enough to call per request on the
 * load generator's and the daemon's hot paths.
 *
 * A histogram instance is single-writer (each loadgen thread and each
 * daemon worker owns one); merge() combines per-thread histograms for
 * the aggregate quantiles, and snapshot() converts the result to a
 * sparse MetricSnapshot that prometheus.cc renders.
 *
 * The metrics registry deliberately holds no histograms: a registry
 * histogram costs one cell per bucket in every recording thread's
 * shard, and ~1.9k buckets per histogram would multiply every shard.
 */

#ifndef SWCC_CORE_OBS_HISTOGRAM_HH
#define SWCC_CORE_OBS_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/obs/metrics.hh"

namespace swcc::obs
{

class Histogram
{
  public:
    Histogram();

    /** Records one observation. */
    void record(std::uint64_t value);

    /** Adds every observation of @p other into this histogram. */
    void merge(const Histogram &other);

    /** Total observations recorded. */
    std::uint64_t count() const { return count_; }

    /** Sum of all recorded values. */
    std::uint64_t sum() const { return sum_; }

    /** Mean recorded value, 0 when empty. */
    double mean() const;

    /** Largest / smallest recorded value (bucket-exact), 0 if empty. */
    std::uint64_t maxValue() const { return max_; }
    std::uint64_t minValue() const { return count_ == 0 ? 0 : min_; }

    /**
     * Value at quantile @p q in [0, 1]: the upper bound of the bucket
     * containing the ceil(q * count)-th observation. Returns 0 when
     * empty.
     */
    std::uint64_t valueAtQuantile(double q) const;

    /** Upper bound (inclusive) of bucket @p index. */
    static std::uint64_t bucketUpperBound(std::size_t index);

    /** Raw bucket counts (for CSV export of the full distribution). */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /**
     * This histogram as a sparse MetricSnapshot named @p name, with
     * every bound and the sum multiplied by @p scale (e.g. 1e-3 for
     * nanoseconds rendered as microseconds). Only occupied buckets
     * become `le` bounds, and occupied buckets within 1/32 (3.125%)
     * of the first bound of their run fold into the run's highest
     * bound: a long-lived daemon occupies hundreds of the ~1.9k
     * 1.6%-spaced buckets, and a 10 Hz scraper should not pay for
     * resolution no dashboard can show. Folding counts upward keeps
     * every `le` line an exact cumulative count; a quantile read off
     * the snapshot is at most 1/32 above valueAtQuantile().
     */
    MetricSnapshot snapshot(std::string name, double scale = 1.0) const;

  private:
    static std::size_t bucketIndex(std::uint64_t value);

    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t min_ = 0;
};

} // namespace swcc::obs

#endif // SWCC_CORE_OBS_HISTOGRAM_HH
