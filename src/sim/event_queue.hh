/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Each node of a simulated machine owns one EventQueue, and one more
 * carries system-level events (DESIGN.md §15). Events are arbitrary
 * callbacks scheduled at absolute ticks; ties are broken by insertion
 * order so that simulations are fully deterministic.
 *
 * The queue is a two-level calendar: a near-future ring of one-tick
 * FIFO buckets (with a bitmap index so the next event is found by a
 * find-first-set scan, not a heap percolation) and a far-future
 * overflow tree for events beyond the ring's window. Event nodes come
 * from an intrusive free list and callbacks are stored inline
 * (sim/inline_function.hh), so steady-state scheduling performs zero
 * heap allocations; the rare exceptions are counted and reported
 * (scheduleAllocs). See DESIGN.md §8 for the structure and the
 * determinism argument.
 */

#ifndef CPX_SIM_EVENT_QUEUE_HH
#define CPX_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace cpx
{

/**
 * A deterministic discrete-event scheduler.
 *
 * The queue is intentionally not thread-safe; it needs no locks
 * because it has one owner at a time. Under the slab kernel a node's
 * queue is touched only by the worker that owns the node (n % W) —
 * which inserts its cross-node deliveries, advances it and reads its
 * next tick — or by the coordinator while every worker is parked
 * (src/core/engine.hh, DESIGN.md §15). Determinism is a design
 * requirement (DESIGN.md §8).
 */
class EventQueue
{
  public:
    using Callback = InlineFunction<80>;

    /**
     * Handle to a pending event, returned by schedule(). Stays valid
     * (for cancel()) until the event executes or is cancelled; a
     * stale handle is recognized and rejected via a generation tag,
     * so cancelling an already-fired event is a safe no-op.
     */
    struct EventId
    {
        void *node = nullptr;
        std::uint32_t gen = 0;

        explicit operator bool() const { return node != nullptr; }
    };

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to run at absolute time @p when.
     * @pre when >= now()
     * @return a handle usable with cancel()
     */
    EventId schedule(Tick when, Callback cb);

    /** Schedule @p cb to run @p delay ticks from now. */
    EventId scheduleIn(Tick delay, Callback cb) {
        return schedule(now_ + delay, std::move(cb));
    }

    /**
     * Schedule @p body to run every @p period ticks, starting
     * @p period ticks from now, until it returns false. The repeat
     * unschedules itself on a false return, so a bounded body (e.g.
     * the interval sampler, which stops when the processors finish)
     * never keeps run() from draining the queue.
     * @pre period > 0
     */
    void scheduleEvery(Tick period, std::function<bool()> body);

    /**
     * Cancel a pending event. The callback is dropped without
     * running; its node is reclaimed when the queue sweeps past it.
     * @return true iff @p id named a still-pending event
     */
    bool cancel(EventId id);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** @return true iff no (uncancelled) events remain. */
    bool empty() const { return pending_ == 0; }

    /** Number of pending (uncancelled) events. */
    std::size_t pending() const { return pending_; }

    /** Total number of events dispatched so far. */
    std::uint64_t executed() const { return numExecuted; }

    /** Number of successful tryAdvance() calls so far. */
    std::uint64_t elided() const { return numElided; }

    /** High-water mark of pending(). */
    std::size_t peakPending() const { return peakPending_; }

    /**
     * Number of schedule() calls that performed a heap allocation:
     * an event-pool refill, or a callback too large for the inline
     * buffer. Steady-state simulation should hold this near zero
     * relative to executed().
     */
    std::uint64_t scheduleAllocs() const { return schedAllocs_; }

    /**
     * Run events until the queue drains or @p limit ticks have been
     * simulated.
     * @return the final simulated time.
     */
    Tick run(Tick limit = maxTick);

    /**
     * Execute every event strictly before @p horizon, in (tick,
     * insertion-order) order, and stop — the slab primitive of the
     * parallel kernel (DESIGN.md §15). Unlike run(), now() is left at
     * the last executed event, so a later slab (or a cross-queue
     * insertion at >= horizon) never observes time it has not reached.
     */
    void runUntil(Tick horizon);

    /**
     * Earliest tick holding a live (uncancelled) event, or maxTick if
     * none. Prunes cancelled events off the front as a side effect;
     * semantics are unchanged (lazy deletion would reclaim them on
     * the next pop anyway).
     */
    Tick nextPendingTick();

    /**
     * Address of the current-time counter, for per-slab trace
     * stamping (Logger::setTickSource) when several queues share one
     * host thread.
     */
    const std::uint64_t *tickPtr() const { return &now_; }

    /**
     * Move now() to @p when without dispatching anything: the
     * wakeup-elision primitive (DESIGN.md §8.1). A caller that would
     * schedule an event at @p when and do nothing until it fires may
     * call this instead and carry on at once. It succeeds only
     *  - inside run() or runUntil(), never in step() or between runs;
     *  - for now() <= @p when within the current run's limit (below
     *    runUntil()'s horizon, at or below run()'s limit);
     *  - when no live event is due at or before @p when, same-tick
     *    ones included, so no dispatch order changes.
     * Cancelled events in the way are reclaimed and do not block it.
     * @return true iff now() == @p when afterwards
     */
    bool tryAdvance(Tick when);

    /**
     * Execute exactly one event (the earliest).
     * @return false if the queue was empty.
     */
    bool step();

  private:
    struct Event;

    /** FIFO of events; one per ring bucket / overflow tick. */
    struct List
    {
        Event *head = nullptr;
        Event *tail = nullptr;
        std::size_t n = 0;
    };

    /** Ring width in ticks (= bucket count); power of two. */
    static constexpr std::size_t ringSize = 2048;
    static constexpr std::size_t ringMask = ringSize - 1;
    static constexpr std::size_t ringWords = ringSize / 64;

    Event *allocEvent();
    void releaseEvent(Event *e);
    void pushRing(Event *e);
    std::size_t findRingFront() const;  //!< bucket index; npos if none
    void migrateOverflow();

    /** The earliest live node and where it is linked. */
    struct Front
    {
        Event *e = nullptr;             //!< nullptr iff none is pending
        std::size_t idx = ringSize;     //!< ring bucket; ringSize: tree
    };
    Front frontLive();                  //!< reclaims cancelled fronts
    void unlinkFront(const Front &f);
    Event *popEarliestLive(Tick limit);
    void advanceTo(Tick when);
    void execute(Event *e);

    std::vector<List> ring;           //!< ringSize one-tick buckets
    std::uint64_t ringBits[ringWords] = {};
    std::map<Tick, List> overflow;    //!< events beyond the window
    Tick now_ = 0;
    Tick horizon_ = 0;                //!< first tick the ring covers
    Tick runEnd_ = 0;                 //!< run's exclusive end; 0 outside
    std::size_t ringNodes = 0;        //!< nodes (live or cancelled) in ring
    std::size_t pending_ = 0;         //!< live pending events
    std::size_t peakPending_ = 0;
    std::uint64_t numExecuted = 0;
    std::uint64_t numElided = 0;
    std::uint64_t schedAllocs_ = 0;

    Event *freeList = nullptr;
    std::vector<std::unique_ptr<Event[]>> chunks;
};

} // namespace cpx

#endif // CPX_SIM_EVENT_QUEUE_HH
