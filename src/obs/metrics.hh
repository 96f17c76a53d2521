/**
 * @file
 * Interval metrics: time-series sampling of component counters.
 *
 * The flight recorder (obs/trace.hh) answers "what happened around
 * this event"; the interval metrics subsystem answers "where did the
 * time go, phase by phase". Components register named monotonically
 * increasing values with a MetricRegistry once, at system build time;
 * an IntervalSampler then snapshots every registered metric each
 * `interval` simulated ticks and stores the per-interval *deltas* in
 * a fixed-stride in-memory series. The sampler event only reads
 * counters, and two sampled runs of the same configuration produce
 * identical series. Sampling is not yet neutral, though: the sampler
 * is a kernel-queue event, each firing ends a slab, and where slabs
 * end still moves simulated results (execTime on most smoke points;
 * DESIGN.md §13, ROADMAP item 1).
 *
 * The registry keys columns by registration order, which is the
 * deterministic system build order (nodes ascending, then the mesh
 * links, then network totals). Series flow through RunResult into the
 * optional "timeseries" block of the cpx-sweep-1 JSON schema and feed
 * tools/cpxreport (utilization, phase-anomaly detection).
 */

#ifndef CPX_OBS_METRICS_HH
#define CPX_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cpx
{

/**
 * A named bag of metric sources. Each source is a closure returning
 * the metric's current cumulative value; the referenced component
 * must outlive the registry. Registration order defines the column
 * order of every series sampled from this registry.
 */
class MetricRegistry
{
  public:
    using Fetch = std::function<std::uint64_t()>;

    /** Register one metric source under @p name. */
    void add(std::string name, Fetch fetch);

    /** Convenience: register a Counter's value. */
    void addCounter(std::string name, const Counter &counter);

    /** Convenience: register a plain Tick/uint64 variable. */
    void addValue(std::string name, const std::uint64_t &value);

    std::size_t size() const { return entries.size(); }
    const std::string &name(std::size_t i) const {
        return entries[i].name;
    }

    /** Current cumulative value of metric @p i. */
    std::uint64_t value(std::size_t i) const {
        return entries[i].fetch();
    }

    /** Snapshot every metric, in column order, into @p out. */
    void snapshot(std::vector<std::uint64_t> &out) const;

  private:
    struct Entry
    {
        std::string name;
        Fetch fetch;
    };

    std::vector<Entry> entries;
};

/**
 * One sampled run: per-interval deltas of every registered metric,
 * row-major with a fixed stride of names.size() columns. Row r covers
 * the simulated-time window (ticks[r] - interval, ticks[r]]; the last
 * row is usually partial (the run finished mid-interval).
 */
struct MetricTimeSeries
{
    Tick interval = 0;                 //!< sampling period (0 = off)
    std::vector<std::string> names;    //!< column names, registry order
    std::vector<Tick> ticks;           //!< end tick of each row
    std::vector<std::uint64_t> deltas; //!< rows() x names.size()

    std::size_t
    rows() const
    {
        return names.empty() ? 0 : deltas.size() / names.size();
    }

    bool empty() const { return deltas.empty(); }

    /** Delta of column @p col over row @p row. */
    std::uint64_t
    at(std::size_t row, std::size_t col) const
    {
        return deltas[row * names.size() + col];
    }
};

/**
 * Samples a MetricRegistry every @p interval ticks via a repeating
 * event-queue event. The sampler stops itself: each firing asks the
 * @p done predicate (typically "all processors finished") and takes
 * one final sample — covering the tail window — before unscheduling,
 * so it never keeps the event queue alive once the run is over.
 */
class IntervalSampler
{
  public:
    /**
     * @param event_queue the system event queue
     * @param registry    metric sources; must outlive the sampler
     * @param interval    sampling period in ticks (> 0)
     */
    IntervalSampler(EventQueue &event_queue,
                    const MetricRegistry &registry, Tick interval);

    /**
     * Arm the sampler: the first sample fires @p interval ticks from
     * now. Call before EventQueue::run(). @p done is polled at each
     * firing; the firing at which it first returns true records the
     * final (partial) row and stops the repeat.
     */
    void start(std::function<bool()> done);

    /** Rows sampled so far. */
    std::size_t rows() const { return series.rows(); }

    /** Move the collected series out (sampler is spent afterwards). */
    MetricTimeSeries takeSeries();

  private:
    void sampleRow();

    EventQueue &eq;
    const MetricRegistry &registry;
    std::vector<std::uint64_t> prev;   //!< cumulative values at last row
    std::vector<std::uint64_t> cur;    //!< scratch snapshot
    MetricTimeSeries series;
    bool started = false;
};

} // namespace cpx

#endif // CPX_OBS_METRICS_HH
