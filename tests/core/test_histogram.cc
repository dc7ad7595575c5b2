/**
 * @file
 * Bucket-boundary, merge and snapshot tests for the HdrHistogram-style
 * obs::Histogram (src/core/obs/histogram.hh). The scrape endpoint
 * renders merged per-worker histograms, so merge() must be lossless:
 * merging per-worker histograms has to equal one histogram fed the
 * union of the samples, bucket for bucket. The sparse snapshot() the
 * scrape renders must keep every `le` line an exact cumulative count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/obs/histogram.hh"

namespace swcc::obs
{
namespace
{

/** The bucket index a value lands in, recovered via the public API. */
std::size_t
indexOf(std::uint64_t value)
{
    Histogram hist;
    hist.record(value);
    const std::vector<std::uint64_t> &buckets = hist.buckets();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] != 0) {
            return i;
        }
    }
    ADD_FAILURE() << "record(" << value << ") hit no bucket";
    return 0;
}

TEST(HistogramTest, SmallValuesAreExact)
{
    // The first 64 buckets are unit-width: the upper bound IS the
    // value, so quantiles of sub-64ns samples are exact.
    for (std::uint64_t v : {0ull, 1ull, 7ull, 63ull}) {
        Histogram hist;
        hist.record(v);
        EXPECT_EQ(hist.valueAtQuantile(0.5), v);
        EXPECT_EQ(Histogram::bucketUpperBound(indexOf(v)), v);
    }
}

TEST(HistogramTest, BucketUpperBoundMapsToItsOwnBucket)
{
    // An upper bound is *inclusive*: recording exactly the bound of
    // bucket i must land in bucket i, and recording bound+1 must not.
    // Walk bounds across several log2 groups.
    for (std::size_t i : {0u, 63u, 64u, 95u, 96u, 200u, 500u, 900u}) {
        const std::uint64_t bound =
            Histogram::bucketUpperBound(i);
        EXPECT_EQ(indexOf(bound), i) << "bound " << bound;
        EXPECT_EQ(indexOf(bound + 1), i + 1) << "bound " << bound;
    }
}

TEST(HistogramTest, BoundsAreStrictlyIncreasing)
{
    std::uint64_t prev = Histogram::bucketUpperBound(0);
    Histogram probe;
    for (std::size_t i = 1; i < probe.buckets().size(); ++i) {
        const std::uint64_t bound =
            Histogram::bucketUpperBound(i);
        EXPECT_GT(bound, prev) << "bucket " << i;
        prev = bound;
    }
}

TEST(HistogramTest, QuantileAtExactBucketEdges)
{
    // Ten observations in ten distinct buckets: quantile q resolves
    // to the ceil(q*10)-th observation's bucket bound, so each edge
    // 0.1, 0.2, ... lands exactly on the next sample's bound.
    std::vector<std::uint64_t> bounds;
    Histogram hist;
    for (std::size_t i = 100; i < 110; ++i) {
        const std::uint64_t bound =
            Histogram::bucketUpperBound(i);
        bounds.push_back(bound);
        hist.record(bound);
    }
    ASSERT_EQ(hist.count(), 10u);
    for (int k = 1; k <= 10; ++k) {
        const double q = static_cast<double>(k) / 10.0;
        EXPECT_EQ(hist.valueAtQuantile(q),
                  bounds[static_cast<std::size_t>(k) - 1])
            << "q=" << q;
        // Just past the previous edge, still the k-th sample.
        EXPECT_EQ(hist.valueAtQuantile(q - 0.05),
                  bounds[static_cast<std::size_t>(k) - 1])
            << "q=" << q - 0.05;
    }
    EXPECT_EQ(hist.valueAtQuantile(0.0), bounds.front());
    EXPECT_EQ(hist.valueAtQuantile(1.0), bounds.back());
}

TEST(HistogramTest, EmptyHistogramIsAllZero)
{
    const Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.sum(), 0u);
    EXPECT_EQ(hist.mean(), 0.0);
    EXPECT_EQ(hist.minValue(), 0u);
    EXPECT_EQ(hist.maxValue(), 0u);
    EXPECT_EQ(hist.valueAtQuantile(0.99), 0u);
    // Its snapshot is the mandatory +Inf bucket alone.
    const MetricSnapshot snap = hist.snapshot("test.empty");
    EXPECT_TRUE(snap.bounds.empty());
    EXPECT_EQ(snap.counts, std::vector<std::uint64_t>{0});
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.sum, 0.0);
}

TEST(HistogramTest, MergeOfPartsEqualsUnion)
{
    // Split one sample stream across three "workers"; merging the
    // three must be indistinguishable from one histogram that saw
    // everything — the invariant buildScrape() relies on.
    std::vector<std::uint64_t> samples;
    std::uint64_t v = 3;
    for (int i = 0; i < 400; ++i) {
        samples.push_back(v);
        v = v * 2654435761u % 50000000u; // spread over ~26 log2 groups
    }
    Histogram whole;
    Histogram parts[3];
    for (std::size_t i = 0; i < samples.size(); ++i) {
        whole.record(samples[i]);
        parts[i % 3].record(samples[i]);
    }
    Histogram merged;
    for (const Histogram &part : parts) {
        merged.merge(part);
    }
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.sum(), whole.sum());
    EXPECT_EQ(merged.minValue(), whole.minValue());
    EXPECT_EQ(merged.maxValue(), whole.maxValue());
    EXPECT_EQ(merged.buckets(), whole.buckets());
    for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        EXPECT_EQ(merged.valueAtQuantile(q), whole.valueAtQuantile(q))
            << "q=" << q;
    }
}

TEST(HistogramTest, MergeWithEmptyIsIdentity)
{
    Histogram hist;
    hist.record(100);
    hist.record(200000);
    const std::uint64_t count = hist.count();
    const std::uint64_t sum = hist.sum();

    Histogram empty;
    hist.merge(empty); // no-op
    EXPECT_EQ(hist.count(), count);
    EXPECT_EQ(hist.sum(), sum);
    EXPECT_EQ(hist.minValue(), 100u);

    empty.merge(hist); // adopt min/max from the non-empty side
    EXPECT_EQ(empty.count(), count);
    EXPECT_EQ(empty.minValue(), 100u);
    EXPECT_EQ(empty.maxValue(), 200000u);
}

TEST(HistogramTest, SnapshotIsASparseExactCumulativeView)
{
    // A few thousand log-uniform samples over nine decades, drawn from
    // a golden-ratio sequence so the test needs no RNG.
    std::vector<std::uint64_t> samples;
    Histogram hist;
    for (int i = 0; i < 4000; ++i) {
        const double u = std::fmod(i * 0.6180339887498949, 1.0);
        const auto value =
            static_cast<std::uint64_t>(std::exp(u * std::log(1e9)));
        samples.push_back(value);
        hist.record(value);
    }
    std::sort(samples.begin(), samples.end());
    std::uint64_t sum = 0;
    for (const std::uint64_t value : samples) {
        sum += value;
    }

    const MetricSnapshot snap = hist.snapshot("test.histogram");
    EXPECT_EQ(snap.name, "test.histogram");
    EXPECT_EQ(snap.kind, MetricSnapshot::Kind::Histogram);
    EXPECT_EQ(snap.count, samples.size());
    EXPECT_EQ(snap.sum, static_cast<double>(sum));
    ASSERT_FALSE(snap.bounds.empty());
    ASSERT_EQ(snap.counts.size(), snap.bounds.size() + 1);
    EXPECT_EQ(snap.counts.back(), 0u); // nothing above the last bound
    // Sparse: fewer bounds than occupied buckets.
    const auto occupied = static_cast<std::size_t>(
        std::count_if(hist.buckets().begin(), hist.buckets().end(),
                      [](std::uint64_t n) { return n != 0; }));
    EXPECT_LT(snap.bounds.size(), occupied);

    // Every `le` line is the exact count of samples at or below it.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < snap.bounds.size(); ++b) {
        if (b > 0) {
            EXPECT_GT(snap.bounds[b], snap.bounds[b - 1]) << "bound " << b;
        }
        cumulative += snap.counts[b];
        const auto atOrBelow = static_cast<std::uint64_t>(
            std::upper_bound(samples.begin(), samples.end(),
                             static_cast<std::uint64_t>(snap.bounds[b])) -
            samples.begin());
        EXPECT_EQ(cumulative, atOrBelow) << "le=" << snap.bounds[b];
    }
    EXPECT_EQ(cumulative, snap.count);

    // A quantile read off the snapshot (the first bound whose
    // cumulative count reaches the rank) is never below the exact
    // bucket quantile and at most 1/32 above it.
    for (double q : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        const auto rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(q * static_cast<double>(snap.count))));
        double fromSnapshot = 0.0;
        cumulative = 0;
        for (std::size_t b = 0; b < snap.bounds.size(); ++b) {
            cumulative += snap.counts[b];
            if (cumulative >= rank) {
                fromSnapshot = snap.bounds[b];
                break;
            }
        }
        const auto exact = static_cast<double>(hist.valueAtQuantile(q));
        EXPECT_GE(fromSnapshot, exact) << "q=" << q;
        EXPECT_LE(fromSnapshot, exact * (1.0 + 1.0 / 32)) << "q=" << q;
    }

    // The scale converts units (ns -> us) without touching counts.
    const MetricSnapshot micros = hist.snapshot("test.histogram", 1e-3);
    EXPECT_EQ(micros.count, snap.count);
    EXPECT_DOUBLE_EQ(micros.sum, static_cast<double>(sum) * 1e-3);
}

} // namespace
} // namespace swcc::obs
