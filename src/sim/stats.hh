/**
 * @file
 * Lightweight statistics primitives.
 *
 * Stats are plain value types owned by the component they describe.
 * Reports name them where they are rendered (core/report.cc; the
 * interval metrics register theirs with obs/metrics.hh). There is no
 * global registry, so several systems can coexist in one process
 * (needed by the benchmark harness, which runs many configurations).
 */

#ifndef CPX_SIM_STATS_HH
#define CPX_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace cpx
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    void operator+=(std::uint64_t n) { value_ += n; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Accumulates samples; reports count/sum/min/max/mean. */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        ++count_;
        sum_ += v;
        min_ = count_ == 1 ? v : std::min(min_, v);
        max_ = count_ == 1 ? v : std::max(max_, v);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Fold @p other in, as if its samples had been taken here. */
    void
    merge(const Accumulator &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        count_ += other.count_;
        sum_ += other.sum_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = min_ = max_ = 0.0;
    }

    /**
     * Overwrite the internal state with previously observed values —
     * the deserialization path of the sweep runner's subprocess wire
     * format (bench/runner.cc), which must reconstruct results
     * bit-identically on the parent side.
     */
    void
    restore(std::uint64_t count, double sum, double min, double max)
    {
        count_ = count;
        sum_ = sum;
        min_ = min;
        max_ = max;
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Fixed-width bucketed histogram with overflow bucket. */
class Histogram
{
  public:
    /**
     * @param bucket_width width of each bucket
     * @param num_buckets  number of regular buckets; samples at or
     *                     beyond bucket_width*num_buckets land in the
     *                     overflow bucket
     */
    explicit Histogram(std::uint64_t bucket_width = 1,
                       std::size_t num_buckets = 16)
        : width(bucket_width ? bucket_width : 1),
          buckets(num_buckets, 0)
    {}

    void
    sample(std::uint64_t v)
    {
        acc.sample(static_cast<double>(v));
        std::size_t idx = v / width;
        if (idx >= buckets.size())
            ++overflow;
        else
            ++buckets[idx];
    }

    const std::vector<std::uint64_t> &bucketCounts() const {
        return buckets;
    }
    std::uint64_t overflowCount() const { return overflow; }
    std::uint64_t bucketWidth() const { return width; }
    const Accumulator &summary() const { return acc; }

    /**
     * Estimate the @p p quantile (0 < p <= 1) from the bucket counts:
     * linear interpolation inside the bucket holding the rank,
     * clamped to the exact observed [min, max]; ranks landing in the
     * overflow bucket report the observed max (the bucketed data
     * cannot resolve the tail beyond it). Returns 0 when empty.
     */
    double percentile(double p) const;

    /**
     * Fold @p other in (per-node → system aggregation). Mismatched
     * bucket geometry is a hard error in every build type: a silent
     * bucket-by-bucket add of differently-scaled histograms would
     * corrupt percentiles undetectably in release builds.
     */
    void merge(const Histogram &other);

    void
    reset()
    {
        std::fill(buckets.begin(), buckets.end(), 0);
        overflow = 0;
        acc.reset();
    }

    /**
     * Overwrite bucket counts, overflow and summary with previously
     * observed values (subprocess wire deserialization). @p counts
     * may be shorter than the geometry (trailing zero buckets
     * trimmed); it must not be longer. Returns false (and leaves the
     * histogram reset) on a geometry mismatch.
     */
    bool
    restore(const std::vector<std::uint64_t> &counts,
            std::uint64_t overflow_count, const Accumulator &summary)
    {
        reset();
        if (counts.size() > buckets.size())
            return false;
        std::copy(counts.begin(), counts.end(), buckets.begin());
        overflow = overflow_count;
        acc = summary;
        return true;
    }

  private:
    std::uint64_t width;
    std::vector<std::uint64_t> buckets;
    std::uint64_t overflow = 0;
    Accumulator acc;
};

} // namespace cpx

#endif // CPX_SIM_STATS_HH
