#include "sim/stats.hh"

#include "sim/logging.hh"

namespace cpx
{

double
Histogram::percentile(double p) const
{
    const std::uint64_t total = acc.count();
    if (total == 0)
        return 0.0;
    // The target rank, 1-based: the smallest k with p <= k/total.
    const double target = p * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        const std::uint64_t before = cumulative;
        cumulative += buckets[i];
        if (static_cast<double>(cumulative) < target)
            continue;
        // Interpolate inside bucket i: how far into the bucket's
        // count the rank falls maps linearly onto its value range.
        const double frac =
            (target - static_cast<double>(before)) /
            static_cast<double>(buckets[i]);
        const double lo = static_cast<double>(i) *
                          static_cast<double>(width);
        double v = lo + frac * static_cast<double>(width);
        // The interpolation can't be more precise than the exact
        // extremes the accumulator tracked.
        return std::min(std::max(v, acc.min()), acc.max());
    }
    // Rank lands in the overflow bucket: the bucketed data cannot
    // resolve the tail, so report the exact observed maximum.
    return acc.max();
}

void
Histogram::merge(const Histogram &other)
{
    if (width != other.width ||
        buckets.size() != other.buckets.size()) {
        panic("Histogram::merge: geometry mismatch "
              "(width %llu/%llu, buckets %zu/%zu)",
              static_cast<unsigned long long>(width),
              static_cast<unsigned long long>(other.width),
              buckets.size(), other.buckets.size());
    }
    for (std::size_t i = 0; i < buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    overflow += other.overflow;
    acc.merge(other.acc);
}

} // namespace cpx
