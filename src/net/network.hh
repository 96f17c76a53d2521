/**
 * @file
 * Interconnection network abstraction.
 *
 * The paper evaluates two network models: the default contention-free
 * uniform-latency network (54 pclocks node to node) used in §5.1–5.2,
 * and wormhole-routed meshes with 64/32/16-bit links used for the
 * contention study (§5.3, Table 3). Both implement this interface.
 *
 * Traffic accounting for Figure 4 also lives here: every message is
 * charged its header + payload bytes as it enters the network.
 */

#ifndef CPX_NET_NETWORK_HH
#define CPX_NET_NETWORK_HH

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cpx
{

/** Fixed per-message header charge (address + type + routing info). */
constexpr unsigned messageHeaderBytes = 8;

/** Message class, for the per-category traffic breakdown. */
enum class MsgClass
{
    Request,    //!< read/write/upgrade/update requests to a home
    Data,       //!< block data replies, fetch responses, write-backs
    Coherence,  //!< invalidations, fetches, acks, migratory probes
    Update,     //!< forwarded combined-write updates
    Sync,       //!< lock acquire/release/grant traffic
    NumClasses,
};

/**
 * Kernel-side hooks the parallel slab engine installs on a System's
 * network (DESIGN.md §15). While a bridge is installed, node-local
 * sends are scheduled on the queue of the node currently executing on
 * this host thread, and cross-node sends are deferred — routing,
 * traffic accounting and latency sampling all happen at the slab
 * barrier, in canonical (send tick, source node, send sequence)
 * order, via admitCross(); the destination's owning worker schedules
 * the delivery. Without a bridge the legacy inline path is used, so a
 * bare Network over a private queue (unit tests) keeps its original
 * semantics.
 */
class ParallelBridge
{
  public:
    virtual ~ParallelBridge() = default;

    /** Queue of the node currently executing on this host thread. */
    virtual EventQueue &activeQueue() = 0;

    /** Park a cross-node message in the sender's outbox until the
     *  slab barrier. @p total_bytes includes the header. */
    virtual void crossSend(NodeId src, NodeId dst,
                           unsigned total_bytes, MsgClass klass,
                           EventQueue::Callback on_deliver) = 0;
};

class Network
{
  public:
    using DeliverFn = EventQueue::Callback;

    explicit Network(EventQueue &event_queue) : eq(event_queue) {}
    virtual ~Network() = default;

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /**
     * Send a message. @p payload_bytes excludes the header, which is
     * added internally. @p on_deliver runs at the destination when
     * the tail of the message arrives.
     */
    void
    send(NodeId src, NodeId dst, unsigned payload_bytes,
         DeliverFn on_deliver, MsgClass klass = MsgClass::Request)
    {
        unsigned total = payload_bytes + messageHeaderBytes;
        if (src != dst && bridge_) {
            bridge_->crossSend(src, dst, total, klass,
                               std::move(on_deliver));
            return;
        }
        EventQueue &q = bridge_ ? bridge_->activeQueue() : eq;
        if (src != dst) {
            acceptCross(src, dst, total, klass, q.now(), q,
                        std::move(on_deliver));
            return;
        }
        // Node-local traffic never enters the network; only the
        // local bus (charged by the sender) sees it. Sampled into a
        // per-source accumulator: under the parallel kernel only
        // src's worker touches it.
        Tick arrival = route(src, dst, total, q.now());
        localLat[src].acc.sample(static_cast<double>(arrival - q.now()));
        q.schedule(arrival, std::move(on_deliver));
    }

    /**
     * Admit one cross-node message into the network: charge traffic
     * counters, route and sample latency, and return the arrival tick
     * without scheduling anything. The parallel engine calls it at the
     * slab barrier, once per mailbox entry, in canonical order — so a
     * run's sequence of calls (and therefore every counter, link
     * reservation and jitter draw) is identical at every
     * --sim-threads value — and hands the delivery to the
     * destination's owner.
     */
    Tick
    admitCross(NodeId src, NodeId dst, unsigned total_bytes,
               MsgClass klass, Tick send_tick)
    {
        ++messages_;
        bytes_ += total_bytes;
        classBytes[static_cast<unsigned>(klass)] += total_bytes;
        Tick arrival = route(src, dst, total_bytes, send_tick);
        crossLat.sample(static_cast<double>(arrival - send_tick));
        return arrival;
    }

    /** admitCross() and schedule @p on_deliver on @p dst_queue at
     *  once: the inline path of send(). */
    void
    acceptCross(NodeId src, NodeId dst, unsigned total_bytes,
                MsgClass klass, Tick send_tick, EventQueue &dst_queue,
                DeliverFn on_deliver)
    {
        dst_queue.schedule(
            admitCross(src, dst, total_bytes, klass, send_tick),
            std::move(on_deliver));
    }

    /** Install (or, with nullptr, remove) the parallel kernel hooks. */
    void setParallelBridge(ParallelBridge *bridge) { bridge_ = bridge; }

    std::uint64_t totalMessages() const { return messages_.value(); }
    std::uint64_t totalBytes() const { return bytes_.value(); }

    /** Bytes injected for one message class. */
    std::uint64_t
    bytesOf(MsgClass klass) const
    {
        return classBytes[static_cast<unsigned>(klass)].value();
    }

    /**
     * Merged view of cross-node and node-local message latencies.
     * Merge order is fixed (cross, then locals by node id); all
     * samples are integer tick counts whose running sums stay far
     * below 2^53, so the merged count/sum/min/max are exact and
     * independent of sampling interleaving — the report is
     * bit-identical at every --sim-threads value.
     */
    const Accumulator &
    latencyStats() const
    {
        mergedLat.reset();
        mergedLat.merge(crossLat);
        for (const auto &l : localLat)
            mergedLat.merge(l.acc);
        return mergedLat;
    }

    /**
     * Model-specific routing: return the absolute arrival tick of a
     * @p total_bytes message from @p src to @p dst injected at
     * @p now. Public so that decorators (ChaosNetwork) can delegate
     * to the model they wrap; everything else goes through send() /
     * admitCross().
     */
    virtual Tick route(NodeId src, NodeId dst, unsigned total_bytes,
                       Tick now) = 0;

    /**
     * Smallest possible cross-node (src != dst) delivery delay, in
     * ticks. The parallel kernel's lookahead: a message sent at tick
     * t cannot act on another node before t + minCrossLatency(), so
     * workers may safely advance that far without synchronizing.
     */
    virtual Tick minCrossLatency() const = 0;

    /**
     * Topological hop count from @p src to @p dst, for per-hop
     * attribution of network segments (src/obs/attrib.hh). The
     * uniform network is a single logical hop; the mesh overrides
     * this with its Manhattan distance. Purely informational — no
     * routing or timing decision reads it.
     */
    virtual unsigned
    hops(NodeId src, NodeId dst) const
    {
        return src == dst ? 0 : 1;
    }

  protected:
    EventQueue &eq;

  private:
    Counter messages_;
    Counter bytes_;
    Counter classBytes[static_cast<unsigned>(MsgClass::NumClasses)];
    //! Cross-node latency: sampled only in admitCross (under the
    //! parallel kernel: only at the barrier, in canonical order).
    Accumulator crossLat;
    //! Node-local latency, one slot per source node, cache-line
    //! padded so concurrent workers never share a line.
    struct alignas(64) LocalLat { Accumulator acc; };
    LocalLat localLat[maxNodes];
    mutable Accumulator mergedLat;
    ParallelBridge *bridge_ = nullptr;
};

/**
 * The paper's default network: contention-free, uniform node-to-node
 * latency (54 pclocks), with node-local contention modelled elsewhere
 * (bus and memory module).
 */
class UniformNetwork : public Network
{
  public:
    UniformNetwork(EventQueue &event_queue, Tick hop_latency = 54,
                   Tick local_latency = 2)
        : Network(event_queue), hopLatency(hop_latency),
          localLatency(local_latency)
    {}

    Tick
    route(NodeId src, NodeId dst, unsigned, Tick now) override
    {
        Tick delay = (src == dst) ? localLatency : hopLatency;
        return now + delay;
    }

    Tick minCrossLatency() const override { return hopLatency; }

  private:
    Tick hopLatency;
    Tick localLatency;
};

} // namespace cpx

#endif // CPX_NET_NETWORK_HH
