/**
 * @file
 * Parallel discrete-event kernel: conservative time-slab execution
 * of one System's nodes across host worker threads (DESIGN.md §15).
 *
 * Every node owns a private event queue. The engine repeatedly picks
 * the earliest pending tick t across all queues and lets workers
 * advance their node partitions through the slab [t, t + L), where L
 * is the network's minimum cross-node latency (the lookahead): a
 * message sent inside the slab cannot arrive before the slab ends,
 * so nodes never need to observe each other mid-slab.
 *
 * Ownership: node n belongs to worker n % W for the whole run, and
 * only that worker touches the node's event queue — it inserts the
 * node's deliveries, advances it, and records its next pending tick.
 * The coordinator (worker 0) touches another worker's queues only
 * while every worker is parked: before a kernel slice and when run()
 * returns. A node with nothing due before the slab end is skipped
 * outright.
 *
 * Cross-node sends park in per-source outboxes; at the slab barrier
 * the coordinator drains them in canonical (send tick, source node,
 * send sequence) order — routing, traffic accounting and latency
 * sampling all happen there, so their history is identical at every
 * worker count — and appends each routed delivery to its destination's
 * inbox. The owner inserts the inbox into the queue at the next slab
 * start, before running the node, so every queue sees the same
 * insertions in the same order at every --sim-threads value
 * (including 1: the engine is the only kernel; a single worker just
 * owns every node).
 *
 * Kernel-queue events (interval sampler, watchdog — anything
 * scheduled through System::eq() from outside node execution) run
 * between slabs on the coordinator, with all workers parked and every
 * inbox flushed into its queue: they may read any node's statistics
 * and queue state race-free. At a given tick, kernel events run before
 * node events.
 */

#ifndef CPX_CORE_ENGINE_HH
#define CPX_CORE_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace cpx
{

/**
 * The event queue of the node currently executing on this host
 * thread, or nullptr outside node execution. System::eq() resolves
 * through this so that every component reaches the right queue
 * without carrying one; the engine sets it around each partition
 * advance (and System::run around Processor::start).
 */
extern thread_local EventQueue *activeNodeQueue;

/** Kernel counters reported per run (RunResult, bench JSON). */
struct SlabTelemetry
{
    std::uint64_t slabRounds = 0;    //!< barrier-delimited slabs run
    std::uint64_t crossMessages = 0; //!< messages drained at barriers
    Tick lookahead = 0;              //!< slab width bound L, in ticks
    unsigned simThreads = 1;         //!< worker threads actually used
    //! Node-slab advances actually run (a node with nothing due in a
    //! slab is skipped); at most slabRounds x nodes, same at every W.
    std::uint64_t nodeAdvances = 0;
};

class SlabEngine : public ParallelBridge
{
  public:
    /**
     * Execution-context callbacks the owning System supplies so that
     * node-private state living outside the engine (the backing
     * store's slab write overlays) tracks the engine's schedule
     * without the engine knowing about memory at all. All three are
     * optional. enter/leave bracket each node's slab advance on the
     * worker thread owning it (a skipped node gets neither); commit
     * runs on the coordinator after every slab's outboxes drain, with
     * all workers parked.
     */
    struct NodeHooks
    {
        std::function<void(unsigned node)> enter;
        std::function<void(unsigned node)> leave;
        std::function<void()> commit;
    };

    /**
     * @param kernel_queue System-level queue (sampler, watchdog)
     * @param node_queues  one queue per node, index == node id
     * @param network      the system's (outermost) network model;
     *                     the engine installs itself as its bridge
     *                     for the duration of the engine's lifetime
     * @param num_workers  host threads to shard nodes across
     *                     (clamped to the node count)
     */
    SlabEngine(EventQueue &kernel_queue,
               const std::vector<std::unique_ptr<EventQueue>> &node_queues,
               Network &network, unsigned num_workers,
               NodeHooks hooks = {});
    ~SlabEngine() override;

    SlabEngine(const SlabEngine &) = delete;
    SlabEngine &operator=(const SlabEngine &) = delete;

    /** Run all queues until drained or past @p limit. */
    void run(Tick limit);

    const SlabTelemetry &telemetry() const { return stats; }

    // --- ParallelBridge -----------------------------------------------------
    EventQueue &activeQueue() override;
    void crossSend(NodeId src, NodeId dst, unsigned total_bytes,
                   MsgClass klass,
                   EventQueue::Callback on_deliver) override;

  private:
    /** A cross-node message parked until the slab barrier. */
    struct PendingMsg
    {
        Tick sendTick;
        NodeId src;
        NodeId dst;
        unsigned totalBytes;
        MsgClass klass;
        EventQueue::Callback onDeliver;
    };

    /**
     * Per-source mailbox; cache-line padded because each is filled
     * only by the worker executing that source node. Entries are
     * appended in send order, which is exactly the (send tick, send
     * sequence) order within the source.
     */
    struct alignas(64) Outbox
    {
        std::vector<PendingMsg> msgs;
    };

    /** A routed cross-node message waiting for its destination's
     *  owner to schedule it. */
    struct Delivery
    {
        Tick arrival;
        EventQueue::Callback onDeliver;
    };

    /**
     * Per-destination mailbox, filled by the coordinator's drain in
     * canonical order while the workers are parked and emptied into
     * the node's queue by its owner at the next slab start.
     */
    struct alignas(64) Inbox
    {
        std::vector<Delivery> msgs;
    };

    /**
     * One worker's nodes (n % W == worker) and what it publishes about
     * them. Written only by that worker, except @c filled, which the
     * coordinator appends to while the workers are parked.
     */
    struct alignas(64) Partition
    {
        //! Next pending tick of each owned node, indexed n / W: exact,
        //! because nothing but the owner changes the queue between
        //! two of its refreshes.
        std::vector<Tick> next;
        //! Owned nodes whose inbox was filled since the last slab
        //! start; their next tick is refreshed after insertion.
        std::vector<NodeId> filled;
        Tick earliest = maxTick;       //!< min of next, at slab end
        std::uint64_t advances = 0;    //!< node-slab advances run
    };

    /**
     * Sense-reversing spin barrier. Spins briefly then yields, so it
     * stays cheap on dedicated cores without starving oversubscribed
     * ones (CI runners). Plain atomics: ThreadSanitizer models the
     * acquire/release pairs directly, no annotations needed.
     */
    class Barrier
    {
      public:
        explicit Barrier(unsigned n) : total(n) {}

        void
        arriveAndWait()
        {
            unsigned sense = phase.load(std::memory_order_relaxed);
            if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                total) {
                arrived.store(0, std::memory_order_relaxed);
                phase.fetch_add(1, std::memory_order_release);
            } else {
                unsigned spins = 0;
                while (phase.load(std::memory_order_acquire) == sense) {
                    if (++spins > 4096) {
                        std::this_thread::yield();
                        spins = 0;
                    }
                }
            }
        }

      private:
        const unsigned total;
        std::atomic<unsigned> arrived{0};
        std::atomic<unsigned> phase{0};
    };

    void workerLoop(unsigned worker);
    void runPartition(unsigned worker, Tick slab_end);
    void drainOutboxes();
    void deliverInbox(NodeId n);
    void flushInboxes();

    EventQueue &kernelQueue;
    const std::vector<std::unique_ptr<EventQueue>> &nodeQueues;
    Network &net;
    unsigned workers;
    NodeHooks hooks;
    SlabTelemetry stats;

    std::vector<Outbox> outboxes;     //!< index == source node id
    std::vector<Inbox> inboxes;       //!< index == destination node id
    std::vector<Partition> partitions; //!< index == worker
    std::vector<PendingMsg> drainScratch;
    //! Earliest arrival drained since the last slab start; the owners
    //! fold these deliveries into their minima only at that start.
    Tick undelivered = maxTick;
    std::vector<std::thread> threads; //!< workers 1..W-1 (0 = caller)
    Barrier barrier;
    Tick slabEnd = 0;                 //!< published before the start barrier
    bool stopping = false;            //!< published before the start barrier
};

} // namespace cpx

#endif // CPX_CORE_ENGINE_HH
