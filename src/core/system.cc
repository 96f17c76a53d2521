#include "core/system.hh"

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/diagnostics.hh"
#include "net/chaos_network.hh"
#include "obs/attrib.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "proto/sharer_set.hh"
#include "sim/logging.hh"

namespace cpx
{

System::System(const MachineParams &machine_params,
               unsigned sim_threads)
    : params_(machine_params), simThreads_(sim_threads),
      addressMap(params_.blockBytes, params_.pageBytes,
                 params_.numProcs),
      backingStore(params_.pageBytes),
      sharedHeap(addressMap)
{
    if (params_.numProcs == 0 || params_.numProcs > maxNodes)
        fatal("numProcs must be in 1..%u (maxNodes)", maxNodes);
    switch (params_.directory.rep) {
      case DirRep::FullMap:
        break;
      case DirRep::LimitedPtr:
        // Two pointers minimum: a fetch downgrade re-installs the
        // requester AND the previous owner in one step
        // (directory.cc onFetchResp) and must never overflow.
        if (params_.directory.pointers < 2 ||
            params_.directory.pointers > SharerSet::maxPointers) {
            fatal("limited-pointer directory needs 2..%u pointers "
                  "(got %u)",
                  SharerSet::maxPointers, params_.directory.pointers);
        }
        break;
      case DirRep::CoarseVector:
        if (params_.directory.coarseness == 0)
            fatal("coarse-vector directory needs coarseness >= 1");
        break;
    }
    if (simThreads_ == 0 || simThreads_ > 64)
        fatal("sim-threads must be in 1..64");
    if (params_.protocol.compUpdate &&
        params_.consistency == Consistency::SequentialConsistency) {
        fatal("the competitive-update extension (CW) requires "
              "release consistency (paper §3.3/§5.2)");
    }
    if (params_.slwbEntries == 0 || params_.flwbEntries == 0)
        fatal("write buffers need at least one entry");

    switch (params_.networkKind) {
      case NetworkKind::Uniform:
        network = std::make_unique<UniformNetwork>(
            eventQueue, params_.uniformHopLatency);
        break;
      case NetworkKind::Mesh: {
        auto mesh_net = std::make_unique<MeshNetwork>(
            eventQueue, params_.numProcs, params_.meshLinkBits);
        meshPtr = mesh_net.get();
        network = std::move(mesh_net);
        break;
      }
    }

    if (params_.chaos.enabled) {
        // Fault injection: wrap the timing model in the jittering
        // decorator. Traffic accounting moves to the wrapper (it is
        // what send() runs on); mesh link stats stay on the inner
        // model, still reachable through meshPtr.
        network = std::make_unique<ChaosNetwork>(
            eventQueue, std::move(network), params_.chaos);
    }

    nodeQueues.reserve(params_.numProcs);
    nodes.reserve(params_.numProcs);
    for (NodeId n = 0; n < params_.numProcs; ++n) {
        nodeQueues.push_back(std::make_unique<EventQueue>());
        nodes.push_back(std::make_unique<Node>(n, *this));
    }
    // Each EventQueue constructor installed itself as this thread's
    // trace tick source; outside node execution the system-level
    // kernel queue is the right one.
    Logger::setTickSource(eventQueue.tickPtr());
}

void
System::registerMetrics(MetricRegistry &registry) const
{
    for (NodeId n = 0; n < params_.numProcs; ++n) {
        std::string prefix = "node" + std::to_string(n);
        nodes[n]->proc.registerMetrics(registry, prefix);
        nodes[n]->slc.registerMetrics(registry, prefix);
    }
    if (meshPtr)
        meshPtr->registerMetrics(registry);
    const Network *net_model = network.get();
    registry.add("net.messages",
                 [net_model] { return net_model->totalMessages(); });
    registry.add("net.bytes",
                 [net_model] { return net_model->totalBytes(); });
}

bool
System::allProcessorsFinished() const
{
    for (const auto &n : nodes)
        if (!n->proc.finished())
            return false;
    return true;
}

template <typename Sink>
void
System::replaceSink(Sink *&slot, Sink *sink, const char *what)
{
    // A sink indexes its per-node storage by node id unchecked.
    if (sink && sink->numNodes() != params_.numProcs)
        fatal("%s built for %u nodes installed on a %u-node system",
              what, sink->numNodes(), params_.numProcs);
    removeProbe(slot);
    slot = sink;
    if (sink)
        installProbe(sink);
}

void
System::setTracer(TraceSink *sink)
{
    replaceSink(tracer_, sink, "trace sink");
}

void
System::setAttrib(AttribSink *sink)
{
    replaceSink(attrib_, sink, "attribution sink");
}

Tick
System::run(const std::function<void(Processor &, unsigned)> &body,
            Tick limit)
{
    if (ran)
        fatal("System::run called twice; construct a fresh System "
              "per run (caches would be warm)");
    ran = true;

    unsigned workers = simThreads_;
    if (workers > 1 && probes() && probes()->sequentialOnly()) {
        // The coherence checker reads state across nodes; running it
        // sharded would race. Checked runs are a debugging tool —
        // correctness beats speed here.
        warn("protocol observer installed: forcing --sim-threads=1 "
             "(was %u)", workers);
        workers = 1;
    }

    for (NodeId n = 0; n < params_.numProcs; ++n) {
        Processor &p = nodes[n]->proc;
        unsigned id = n;
        // The initial fiber resume must land on the node's own
        // queue: point eq() at it for the duration of start().
        activeNodeQueue = nodeQueues[n].get();
        p.start([&body, &p, id] { body(p, id); });
    }
    activeNodeQueue = nullptr;

    // Functional memory runs behind per-node slab write overlays for
    // the whole engine run — at every worker count, so there is one
    // canonical memory semantics (backing_store.hh, DESIGN.md §15).
    backingStore.beginSlabOverlays(params_.numProcs);
    SlabEngine::NodeHooks hooks;
    hooks.enter = [this](unsigned n) { backingStore.enterNode(n); };
    hooks.leave = [this](unsigned) { backingStore.leaveNode(); };
    hooks.commit = [this] { backingStore.commitSlab(); };
    {
        SlabEngine engine(eventQueue, nodeQueues, *network, workers,
                          std::move(hooks));
        engine.run(limit);
        telemetry = engine.telemetry();
    }
    backingStore.endSlabOverlays();

    Tick finish = 0;
    for (NodeId n = 0; n < params_.numProcs; ++n) {
        const Processor &p = nodes[n]->proc;
        if (!p.finished()) {
            // Dump the full protocol state before dying: a bare
            // panic on a wedged run hides the wait cycle.
            std::fputs(formatStallDiagnostics(*this).c_str(), stderr);
            panic("processor %u did not finish (deadlock or tick "
                  "limit %llu reached at t=%llu; %zu events pending; "
                  "diagnostics above)",
                  n, static_cast<unsigned long long>(limit),
                  static_cast<unsigned long long>(simNow()),
                  totalPending());
        }
        finish = std::max(finish, p.finishTick());
    }
    return finish;
}

std::uint64_t
System::totalEventsExecuted() const
{
    std::uint64_t total = eventQueue.executed();
    for (const auto &q : nodeQueues)
        total += q->executed();
    return total;
}

std::uint64_t
System::totalWakeupsElided() const
{
    std::uint64_t total = eventQueue.elided();
    for (const auto &q : nodeQueues)
        total += q->elided();
    return total;
}

std::size_t
System::totalPending() const
{
    std::size_t total = eventQueue.pending();
    for (const auto &q : nodeQueues)
        total += q->pending();
    return total;
}

std::size_t
System::totalPeakPending() const
{
    std::size_t total = eventQueue.peakPending();
    for (const auto &q : nodeQueues)
        total += q->peakPending();
    return total;
}

std::uint64_t
System::totalScheduleAllocs() const
{
    std::uint64_t total = eventQueue.scheduleAllocs();
    for (const auto &q : nodeQueues)
        total += q->scheduleAllocs();
    return total;
}

Tick
System::simNow() const
{
    Tick t = eventQueue.now();
    for (const auto &q : nodeQueues)
        t = std::max(t, q->now());
    return t;
}

void
System::flushFunctionalState()
{
    CPX_PROBE(*this, onBeforeFunctionalFlush);
    for (auto &n : nodes)
        n->slc.flushFunctionalState();
}

bool
System::quiescent() const
{
    for (const auto &n : nodes) {
        if (n->slc.pendingTransactions() != 0)
            return false;
        if (n->slc.pendingWriteClass() != 0)
            return false;
        if (n->dir.blocksInService() != 0)
            return false;
        if (n->locks.heldLocks() != 0)
            return false;
    }
    return true;
}

} // namespace cpx
