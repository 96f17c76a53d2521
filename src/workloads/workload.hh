/**
 * @file
 * Workload interface: a parallel program driving the simulator.
 *
 * Following the paper's methodology (§4), statistics cover the
 * parallel section only: setup() initializes shared data functionally
 * (no simulated time, caches stay cold), parallel() runs on every
 * simulated processor's fiber, and verify() checks functional
 * correctness after the caches have been flushed back to memory.
 */

#ifndef CPX_WORKLOADS_WORKLOAD_HH
#define CPX_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/report.hh"
#include "core/system.hh"

namespace cpx
{

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Allocate and functionally initialize shared data. */
    virtual void setup(System &sys) = 0;

    /** The parallel section, executed by every simulated processor. */
    virtual void parallel(Processor &p, unsigned id) = 0;

    /** Check results (after System::flushFunctionalState()). */
    virtual bool verify(System &sys) = 0;
};

/** Result of one workload run. */
struct WorkloadRun
{
    Tick execTime = 0;
    bool verified = false;
    RunResult stats;
};

/**
 * Run @p w on @p sys: setup, parallel section, functional flush,
 * verification, statistics collection.
 *
 * @param sample_interval when > 0, sample every registered interval
 *        metric each @p sample_interval ticks; the collected series
 *        lands in WorkloadRun::stats.timeseries. Sampling cuts slabs,
 *        so it can move simulated statistics (DESIGN.md §13,
 *        ROADMAP item 1).
 */
WorkloadRun runWorkload(System &sys, Workload &w, Tick limit = maxTick,
                        Tick sample_interval = 0);

/**
 * Factory: construct a workload by name. Names: "mp3d", "cholesky",
 * "water", "lu", "ocean" (the five applications of §4), the
 * extension application "fft", the synthetic kernels "migratory",
 * "producer_consumer", "readonly", "false_sharing", and the random
 * protocol stress tester "stress", and "trace:PATH", which replays
 * the trace file at PATH (workloads/trace.hh; scale and seed unused).
 *
 * @param scale linear problem-size multiplier (1.0 = the harness
 *              default sizes; tests use smaller values)
 * @param seed  random seed for the workloads that use one
 *              ("readonly", "stress"); ignored by the rest
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       double scale = 1.0,
                                       std::uint64_t seed = 1);

/** The five application names in the paper's order. */
const std::vector<std::string> &paperApplications();

} // namespace cpx

#endif // CPX_WORKLOADS_WORKLOAD_HH
