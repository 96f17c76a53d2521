#include "core/engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cpx
{

thread_local EventQueue *activeNodeQueue = nullptr;

SlabEngine::SlabEngine(
    EventQueue &kernel_queue,
    const std::vector<std::unique_ptr<EventQueue>> &node_queues,
    Network &network, unsigned num_workers, NodeHooks node_hooks)
    : kernelQueue(kernel_queue), nodeQueues(node_queues), net(network),
      workers(std::max(1u,
                       std::min(num_workers,
                                static_cast<unsigned>(
                                    node_queues.size())))),
      hooks(std::move(node_hooks)),
      outboxes(node_queues.size()), inboxes(node_queues.size()),
      partitions(workers), barrier(workers)
{
    stats.lookahead = net.minCrossLatency();
    stats.simThreads = workers;
    if (stats.lookahead == 0)
        panic("network reports zero cross-node latency; the slab "
              "kernel needs lookahead >= 1");
    net.setParallelBridge(this);
}

SlabEngine::~SlabEngine()
{
    net.setParallelBridge(nullptr);
}

EventQueue &
SlabEngine::activeQueue()
{
    if (!activeNodeQueue)
        panic("network send outside node execution while the "
              "parallel kernel is active");
    return *activeNodeQueue;
}

void
SlabEngine::crossSend(NodeId src, NodeId dst, unsigned total_bytes,
                      MsgClass klass, EventQueue::Callback on_deliver)
{
    outboxes[src].msgs.push_back(PendingMsg{
        activeQueue().now(), src, dst, total_bytes, klass,
        std::move(on_deliver)});
}

void
SlabEngine::runPartition(unsigned worker, Tick slab_end)
{
    // Static interleaved partition: node n belongs to worker n % W.
    // The assignment only affects which thread advances a queue,
    // never what the queue does, so it is free to be this simple.
    Partition &part = partitions[worker];
    // Deliveries first: each queue receives its inbox in drain order
    // with nothing in between, exactly the insertions (and so the
    // same-tick order and pending high-water mark) it would have had
    // if the coordinator had scheduled them at the barrier.
    for (NodeId n : part.filled) {
        deliverInbox(n);
        part.next[n / workers] = nodeQueues[n]->nextPendingTick();
    }
    part.filled.clear();

    Tick earliest = maxTick;
    for (std::size_t i = 0; i < part.next.size(); ++i) {
        Tick &next = part.next[i];
        if (next < slab_end) {
            // A node with nothing due in the slab is skipped: runUntil
            // would only have confirmed its front lies beyond it.
            const unsigned n = worker + static_cast<unsigned>(i) * workers;
            EventQueue &q = *nodeQueues[n];
            activeNodeQueue = &q;
            Logger::setTickSource(q.tickPtr());
            if (hooks.enter)
                hooks.enter(n);
            q.runUntil(slab_end);
            if (hooks.leave)
                hooks.leave(n);
            activeNodeQueue = nullptr;
            Logger::clearTickSource(q.tickPtr());
            next = q.nextPendingTick();
            ++part.advances;
        }
        earliest = std::min(earliest, next);
    }
    part.earliest = earliest;
}

void
SlabEngine::deliverInbox(NodeId n)
{
    EventQueue &q = *nodeQueues[n];
    Inbox &box = inboxes[n];
    for (Delivery &d : box.msgs)
        q.schedule(d.arrival, std::move(d.onDeliver));
    box.msgs.clear();
}

void
SlabEngine::flushInboxes()
{
    // Coordinator only, with every worker parked. The nodes stay on
    // their owners' filled lists, so each owner still refreshes the
    // next tick of a node whose queue changed here.
    for (const Partition &part : partitions)
        for (NodeId n : part.filled)
            deliverInbox(n);
}

void
SlabEngine::workerLoop(unsigned worker)
{
    for (;;) {
        barrier.arriveAndWait();  // slab start (or shutdown)
        if (stopping)
            return;
        runPartition(worker, slabEnd);
        barrier.arriveAndWait();  // slab end
    }
}

void
SlabEngine::drainOutboxes()
{
    // Canonical order: gather source-ascending (each outbox is
    // already send-ordered), then stable-sort by send tick. The
    // result is (send tick, source node, send sequence) — a total
    // order independent of how many workers produced the messages.
    drainScratch.clear();
    for (auto &box : outboxes) {
        if (box.msgs.empty())
            continue;  // read only: leave an idle source's line clean
        for (auto &msg : box.msgs)
            drainScratch.push_back(std::move(msg));
        box.msgs.clear();
    }
    std::stable_sort(drainScratch.begin(), drainScratch.end(),
                     [](const PendingMsg &a, const PendingMsg &b) {
                         return a.sendTick < b.sendTick;
                     });
    stats.crossMessages += drainScratch.size();
    for (PendingMsg &msg : drainScratch) {
        // Arrival >= sendTick + lookahead >= slab end: never lands
        // inside the slab just executed, so no queue sees the past.
        const Tick arrival = net.admitCross(msg.src, msg.dst,
                                            msg.totalBytes, msg.klass,
                                            msg.sendTick);
        // Every filled list was emptied at the slab start before this
        // drain, so an empty inbox means its node is not listed yet.
        Inbox &box = inboxes[msg.dst];
        if (box.msgs.empty())
            partitions[msg.dst % workers].filled.push_back(msg.dst);
        box.msgs.push_back(Delivery{arrival, std::move(msg.onDeliver)});
        undelivered = std::min(undelivered, arrival);
    }
    drainScratch.clear();
}

void
SlabEngine::run(Tick limit)
{
    // Everything the coordinator schedules between slabs stamps
    // kernel time; workers install their node queues themselves.
    const std::uint64_t *coordinator_tick = kernelQueue.tickPtr();
    Logger::setTickSource(coordinator_tick);

    // Seed each partition's view of its nodes before any worker runs.
    for (unsigned w = 0; w < workers; ++w) {
        Partition &part = partitions[w];
        part.next.clear();
        part.filled.clear();
        part.earliest = maxTick;
        for (std::size_t n = w; n < nodeQueues.size(); n += workers) {
            part.next.push_back(nodeQueues[n]->nextPendingTick());
            part.earliest = std::min(part.earliest, part.next.back());
        }
    }

    threads.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
        threads.emplace_back([this, w] { workerLoop(w); });

    const Tick end_cap = limit == maxTick ? maxTick : limit + 1;
    for (;;) {
        const Tick kernel_next = kernelQueue.nextPendingTick();
        Tick node_next = undelivered;
        for (const Partition &part : partitions)
            node_next = std::min(node_next, part.earliest);
        const Tick t = std::min(kernel_next, node_next);
        if (t == maxTick || t > limit)
            break;
        if (kernel_next <= t) {
            // Kernel slice: sampler/watchdog events at this tick run
            // before any node event at the same tick, with every
            // worker parked and every delivery in its queue — they
            // may read node and queue state race-free.
            flushInboxes();
            kernelQueue.runUntil(kernel_next + 1);
            continue;
        }
        Tick slab_limit = t > maxTick - stats.lookahead
                              ? maxTick
                              : t + stats.lookahead;
        const Tick end =
            std::min({slab_limit, kernel_next, end_cap});
        ++stats.slabRounds;
        slabEnd = end;
        undelivered = maxTick;
        barrier.arriveAndWait();  // publish slabEnd; slab start
        runPartition(0, end);
        Logger::setTickSource(coordinator_tick);
        barrier.arriveAndWait();  // slab end
        drainOutboxes();
        if (hooks.commit)
            hooks.commit();
    }

    // Drained or cut at the limit: whatever is still undelivered
    // belongs in its queue, where the caller can see it pending.
    flushInboxes();
    stopping = true;
    barrier.arriveAndWait();
    for (std::thread &th : threads)
        th.join();
    threads.clear();
    stats.nodeAdvances = 0;
    for (const Partition &part : partitions)
        stats.nodeAdvances += part.advances;
}

} // namespace cpx
