/**
 * @file
 * System assembly: builds the full 16-node CC-NUMA machine from a
 * MachineParams description and runs workloads on it.
 *
 * A System is single-use: construct, (optionally) initialize shared
 * data through heap()/store(), call run() once, then read statistics.
 * The benchmark harness constructs a fresh System per configuration.
 */

#ifndef CPX_CORE_SYSTEM_HH
#define CPX_CORE_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/engine.hh"
#include "mem/backing_store.hh"
#include "mem/shared_heap.hh"
#include "net/mesh.hh"
#include "net/network.hh"
#include "node/node.hh"
#include "proto/fabric.hh"

namespace cpx
{

class AttribSink;
class TraceSink;

class System : public Fabric
{
  public:
    /**
     * @param machine_params machine description
     * @param sim_threads    host worker threads for the parallel
     *                       kernel (default 1; statistics are
     *                       bit-identical at every value)
     */
    explicit System(const MachineParams &machine_params,
                    unsigned sim_threads = 1);

    // --- Fabric ---------------------------------------------------------------
    /**
     * The event queue of the current execution context: the queue of
     * the node executing on this host thread, or the system-level
     * kernel queue outside node execution (setup, sampling,
     * teardown). Components never need to know which.
     */
    EventQueue &
    eq() override
    {
        return activeNodeQueue ? *activeNodeQueue : eventQueue;
    }
    Network &net() override { return *network; }
    const AddressMap &amap() const override { return addressMap; }
    const MachineParams &params() const override { return params_; }
    BackingStore &store() override { return backingStore; }

    SlcController &slc(NodeId n) override { return nodes[n]->slc; }
    DirectoryController &dir(NodeId n) override { return nodes[n]->dir; }
    LockManager &locks(NodeId n) override { return nodes[n]->locks; }
    ProcessorIface &proc(NodeId n) override { return nodes[n]->proc; }
    Resource &bus(NodeId n) override { return nodes[n]->bus; }

    // --- concrete accessors ------------------------------------------------
    Processor &processor(NodeId n) { return nodes[n]->proc; }
    Node &node(NodeId n) { return *nodes[n]; }
    const Node &node(NodeId n) const { return *nodes[n]; }
    SharedHeap &heap() { return sharedHeap; }

    // --- observers ---------------------------------------------------------
    /**
     * Install the flight recorder (src/obs/trace.hh) on the probe
     * stream, replacing any previous one; nullptr removes it.
     * fatal() if @p sink was built for a different node count.
     */
    void setTracer(TraceSink *sink);
    TraceSink *tracer() const { return tracer_; }

    /** Same for the stall-attribution sink (src/obs/attrib.hh). */
    void setAttrib(AttribSink *sink);
    AttribSink *attrib() const { return attrib_; }

    /** The mesh model, or nullptr when the uniform network is used. */
    MeshNetwork *mesh() { return meshPtr; }

    /**
     * Register every interval metric of the machine — per-node
     * breakdown and protocol counters, per-link mesh traffic, network
     * totals — in deterministic build order (nodes ascending, then
     * mesh links, then totals). See DESIGN.md §13.
     */
    void registerMetrics(MetricRegistry &registry) const;

    /**
     * @return true iff every processor's workload body has returned.
     * The interval sampler's stop predicate: once this holds, only
     * bookkeeping events remain and sampling would record nothing.
     */
    bool allProcessorsFinished() const;

    // --- execution ---------------------------------------------------------
    /**
     * Run @p body on every processor (as the parallel section) until
     * all of them finish.
     *
     * @param body  per-processor workload function
     * @param limit safety cap on simulated time
     * @return the parallel-section execution time (max finish tick)
     */
    Tick run(const std::function<void(Processor &, unsigned)> &body,
             Tick limit = maxTick);

    /**
     * Push all cached dirty data back to memory, functionally (no
     * timing). Call after run(), before verifying results.
     */
    void flushFunctionalState();

    /**
     * @return true iff no transactions, buffered writes or held
     * locks remain anywhere (protocol drained cleanly).
     */
    bool quiescent() const;

    // --- kernel aggregates ---------------------------------------------------
    // Sums over the kernel queue and every node queue. Each per-queue
    // value is identical at every --sim-threads setting, so these
    // (and anything derived from them, e.g. formatSystemStats) are
    // too.

    /** Events executed across all queues. */
    std::uint64_t totalEventsExecuted() const;

    /**
     * Processor wakeups elided across all queues (EventQueue::
     * tryAdvance): each one is an event the machine would otherwise
     * have dispatched, so this plus totalEventsExecuted() is the
     * event count without elision.
     */
    std::uint64_t totalWakeupsElided() const;

    /** Live pending events across all queues. */
    std::size_t totalPending() const;

    /** Sum of each queue's pending high-water mark. */
    std::size_t totalPeakPending() const;

    /** schedule() heap allocations across all queues. */
    std::uint64_t totalScheduleAllocs() const;

    /** Latest simulated time reached by any queue. */
    Tick simNow() const;

    /** Worker-thread count requested at construction. */
    unsigned simThreads() const { return simThreads_; }

    /** Kernel telemetry of the last run() (zeros before run()). */
    const SlabTelemetry &kernelTelemetry() const { return telemetry; }

  private:
    template <typename Sink>
    void replaceSink(Sink *&slot, Sink *sink, const char *what);

    MachineParams params_;
    unsigned simThreads_;
    EventQueue eventQueue;  //!< kernel queue (system-level events)
    AddressMap addressMap;
    BackingStore backingStore;
    SharedHeap sharedHeap;
    std::unique_ptr<Network> network;
    MeshNetwork *meshPtr = nullptr;
    std::vector<std::unique_ptr<EventQueue>> nodeQueues;
    std::vector<std::unique_ptr<Node>> nodes;
    SlabTelemetry telemetry;
    TraceSink *tracer_ = nullptr;
    AttribSink *attrib_ = nullptr;
    bool ran = false;
};

} // namespace cpx

#endif // CPX_CORE_SYSTEM_HH
