#include "core/obs/histogram.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace swcc::obs
{

namespace
{

/** log2 of the linear sub-bucket count per group. */
constexpr std::uint64_t kSubBits = 6;
constexpr std::uint64_t kSub = 1ull << kSubBits; // 64
constexpr std::uint64_t kHalf = kSub / 2;        // 32

/** Groups above the linear range: one per dropped low bit. */
constexpr std::size_t kGroups = 64 - kSubBits;
constexpr std::size_t kBuckets =
    static_cast<std::size_t>(kSub + kGroups * kHalf);

} // namespace

Histogram::Histogram() : buckets_(kBuckets, 0) {}

std::size_t
Histogram::bucketIndex(std::uint64_t value)
{
    if (value < kSub) {
        return static_cast<std::size_t>(value);
    }
    // Drop low bits until the value fits in kSubBits bits; the kept
    // prefix lands in [kHalf, kSub).
    const std::uint64_t shift =
        static_cast<std::uint64_t>(std::bit_width(value)) - kSubBits;
    const std::uint64_t sub = value >> shift;
    return static_cast<std::size_t>(kSub + (shift - 1) * kHalf +
                                    (sub - kHalf));
}

std::uint64_t
Histogram::bucketUpperBound(std::size_t index)
{
    if (index < kSub) {
        return index;
    }
    const std::uint64_t offset = index - kSub;
    const std::uint64_t shift = offset / kHalf + 1;
    const std::uint64_t sub = kHalf + offset % kHalf;
    return ((sub + 1) << shift) - 1;
}

void
Histogram::record(std::uint64_t value)
{
    ++buckets_[bucketIndex(value)];
    ++count_;
    sum_ += value;
    max_ = std::max(max_, value);
    min_ = count_ == 1 ? value : std::min(min_, value);
}

void
Histogram::merge(const Histogram &other)
{
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        buckets_[i] += other.buckets_[i];
    }
    if (other.count_ > 0) {
        min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

double
Histogram::mean() const
{
    return count_ == 0
        ? 0.0
        : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t
Histogram::valueAtQuantile(double q) const
{
    if (count_ == 0) {
        return 0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const std::uint64_t target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= target) {
            return bucketUpperBound(i);
        }
    }
    return max_;
}

MetricSnapshot
Histogram::snapshot(std::string name, double scale) const
{
    MetricSnapshot snap;
    snap.name = std::move(name);
    snap.kind = MetricSnapshot::Kind::Histogram;
    snap.count = count_;
    snap.sum = static_cast<double>(sum_) * scale;
    std::uint64_t pending = 0;
    double pendingBound = 0.0;
    double anchor = -1.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0) {
            continue;
        }
        const double bound =
            static_cast<double>(bucketUpperBound(i)) * scale;
        if (anchor > 0.0 && bound <= anchor * (1.0 + 1.0 / 32)) {
            // Within 3.125% of the run's first bound: fold upward.
            pending += buckets_[i];
            pendingBound = bound;
            continue;
        }
        if (pending > 0) {
            snap.bounds.push_back(pendingBound);
            snap.counts.push_back(pending);
        }
        anchor = bound;
        pending = buckets_[i];
        pendingBound = bound;
    }
    if (pending > 0) {
        snap.bounds.push_back(pendingBound);
        snap.counts.push_back(pending);
    }
    // The +Inf bucket (counts has bounds.size() + 1 entries).
    snap.counts.push_back(0);
    return snap;
}

} // namespace swcc::obs
