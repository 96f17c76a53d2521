#include "sim/event_queue.hh"

#include <bit>

#include "sim/logging.hh"

namespace cpx
{

/**
 * A pending event. Nodes live in pool chunks owned by the queue and
 * cycle through an intrusive free list; @c gen distinguishes a node's
 * successive incarnations so stale EventIds can't cancel a reused
 * node (a given node would have to be recycled 2^32 times between
 * schedule() and cancel() for a false match).
 */
struct EventQueue::Event
{
    Event *next = nullptr;      //!< FIFO / free-list link
    Tick when = 0;
    std::uint32_t gen = 0;
    bool cancelled = false;
    Callback cb;
};

EventQueue::EventQueue()
{
    ring.resize(ringSize);
    // Thread-local: each host thread's traces are stamped by the
    // queue of the System running on that thread.
    Logger::setTickSource(&now_);
}

EventQueue::~EventQueue()
{
    // Drop the tick source only if it still points at this queue, so
    // destroying an older System never dangles or clobbers a newer
    // one constructed on the same thread.
    Logger::clearTickSource(&now_);
}

EventQueue::Event *
EventQueue::allocEvent()
{
    if (!freeList) {
        // Pool refill: the only node allocation the queue ever does.
        ++schedAllocs_;
        constexpr std::size_t chunkEvents = 256;
        chunks.push_back(std::make_unique<Event[]>(chunkEvents));
        Event *arr = chunks.back().get();
        for (std::size_t i = 0; i < chunkEvents; ++i) {
            arr[i].next = freeList;
            freeList = &arr[i];
        }
    }
    Event *e = freeList;
    freeList = e->next;
    e->next = nullptr;
    return e;
}

void
EventQueue::releaseEvent(Event *e)
{
    e->cb = nullptr;
    ++e->gen;   // invalidate any EventId still naming this node
    e->next = freeList;
    freeList = e;
}

void
EventQueue::pushRing(Event *e)
{
    const std::size_t idx = e->when & ringMask;
    List &bucket = ring[idx];
    if (bucket.tail)
        bucket.tail->next = e;
    else
        bucket.head = e;
    bucket.tail = e;
    ++bucket.n;
    ringBits[idx / 64] |= std::uint64_t{1} << (idx % 64);
    ++ringNodes;
}

inline std::size_t
EventQueue::findRingFront() const
{
    if (ringNodes == 0)
        return ringSize;
    // Circular scan from the window start: bucket distance from
    // horizon_'s slot equals tick distance from horizon_, so the
    // first set bit in circular order is the earliest tick.
    const std::size_t start = horizon_ & ringMask;
    const std::size_t startWord = start / 64;
    const std::size_t startBit = start % 64;
    std::uint64_t w = ringBits[startWord] & (~std::uint64_t{0} << startBit);
    if (w)
        return startWord * 64 + std::countr_zero(w);
    for (std::size_t i = 1; i <= ringWords; ++i) {
        const std::size_t wi = (startWord + i) & (ringWords - 1);
        w = ringBits[wi];
        if (wi == startWord)
            w &= ~(~std::uint64_t{0} << startBit);
        if (w)
            return wi * 64 + std::countr_zero(w);
    }
    return ringSize;
}

void
EventQueue::migrateOverflow()
{
    // Move every overflow tick the window now covers into the ring.
    // Whole per-tick lists are spliced, and a covered tick's bucket
    // is necessarily empty beforehand, so same-tick insertion order
    // survives the migration.
    const bool satur = horizon_ > maxTick - ringSize;
    const Tick target = satur ? maxTick : horizon_ + ringSize;
    auto it = overflow.lower_bound(horizon_);
    while (it != overflow.end() && (satur || it->first < target)) {
        const std::size_t idx = it->first & ringMask;
        List &bucket = ring[idx];
        List &l = it->second;
        if (bucket.tail)
            bucket.tail->next = l.head;
        else
            bucket.head = l.head;
        bucket.tail = l.tail;
        bucket.n += l.n;
        ringBits[idx / 64] |= std::uint64_t{1} << (idx % 64);
        ringNodes += l.n;
        it = overflow.erase(it);
    }
}

// inline (with its helpers): the pop and peek paths run once per
// event and once per queue per slab; keep them free of extra calls.
inline EventQueue::Front
EventQueue::frontLive()
{
    for (;;) {
        const std::size_t idx = findRingFront();
        if (idx == ringSize) {
            if (overflow.empty())
                return {};
            // Ring drained: jump the window to the overflow front.
            // migrateOverflow() starts at lower_bound(horizon_), so
            // at least the front list lands in the ring.
            horizon_ = overflow.begin()->first;
            migrateOverflow();
            continue;
        }
        // An overflow tick below the ring front can only be a "gap"
        // event — one scheduled below the window after run() was
        // truncated mid-window — and is served straight from the
        // tree. Ring and overflow never share a tick, so this
        // comparison has no tie to break.
        Front f{ring[idx].head, idx};
        if (!overflow.empty() && overflow.begin()->first <= f.e->when)
            f = Front{overflow.begin()->second.head, ringSize};
        if (!f.e->cancelled)
            return f;
        // Lazy deletion: reclaim the node now that the sweep reached
        // it.
        unlinkFront(f);
        releaseEvent(f.e);
    }
}

inline void
EventQueue::unlinkFront(const Front &f)
{
    if (f.idx != ringSize) {
        List &bucket = ring[f.idx];
        bucket.head = f.e->next;
        if (!bucket.head)
            bucket.tail = nullptr;
        if (--bucket.n == 0)
            ringBits[f.idx / 64] &= ~(std::uint64_t{1} << (f.idx % 64));
        --ringNodes;
    } else {
        auto it = overflow.begin();
        List &l = it->second;
        l.head = f.e->next;
        if (!l.head)
            l.tail = nullptr;
        if (--l.n == 0)
            overflow.erase(it);
    }
    f.e->next = nullptr;
}

EventQueue::Event *
EventQueue::popEarliestLive(Tick limit)
{
    const Front f = frontLive();
    if (!f.e || f.e->when > limit)
        return nullptr;
    unlinkFront(f);
    --pending_;
    return f.e;
}

void
EventQueue::advanceTo(Tick when)
{
    now_ = when;
    if (horizon_ < now_) {
        // Keep the window's start pinned to now so short-delay
        // schedules (the common case) always land in the ring.
        horizon_ = now_;
        if (!overflow.empty())
            migrateOverflow();
    }
}

void
EventQueue::execute(Event *e)
{
    advanceTo(e->when);
    ++numExecuted;
    // Move the callback out and release the node *before* invoking,
    // so the callback may freely schedule (and immediately reuse the
    // node).
    Callback cb = std::move(e->cb);
    releaseEvent(e);
    cb();
}

bool
EventQueue::tryAdvance(Tick when)
{
    if (when < now_ || when >= runEnd_)
        return false;
    // frontLive() reclaims every cancelled node ahead of the first
    // live one, so once it reports that live node beyond @p when,
    // every node left lies beyond it too: the ring still holds no
    // tick below the window start advanceTo() moves up.
    const Front f = frontLive();
    if (f.e && f.e->when <= when)
        return false;
    advanceTo(when);
    ++numElided;
    return true;
}

EventQueue::EventId
EventQueue::schedule(Tick when, Callback cb)
{
    if (when < now_)
        panic("event scheduled in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    Event *e = allocEvent();
    if (cb.onHeap())
        ++schedAllocs_;
    e->when = when;
    e->cancelled = false;
    e->cb = std::move(cb);
    // Near the Tick range's end the window is clipped to maxTick and
    // when - horizon_ still stays below ringSize, so saturation needs
    // no special case here.
    if (when >= horizon_ && when - horizon_ < ringSize) {
        pushRing(e);
    } else {
        List &l = overflow[when];
        if (l.tail)
            l.tail->next = e;
        else
            l.head = e;
        l.tail = e;
        ++l.n;
    }
    ++pending_;
    if (pending_ > peakPending_)
        peakPending_ = pending_;
    return EventId{e, e->gen};
}

void
EventQueue::scheduleEvery(Tick period, std::function<bool()> body)
{
    if (period == 0)
        panic("scheduleEvery: period must be > 0");
    // The shared_ptr keeps the (possibly large) body off the inline
    // callback buffer; each firing re-arms with the same handle, so
    // the repeat costs one pooled event node per period.
    struct Repeat
    {
        static void
        arm(EventQueue &eq, Tick period,
            std::shared_ptr<std::function<bool()>> body)
        {
            eq.scheduleIn(period, [&eq, period, body] {
                if ((*body)())
                    arm(eq, period, body);
            });
        }
    };
    Repeat::arm(*this, period,
                std::make_shared<std::function<bool()>>(
                    std::move(body)));
}

bool
EventQueue::cancel(EventId id)
{
    if (!id.node)
        return false;
    Event *e = static_cast<Event *>(id.node);
    if (e->gen != id.gen || e->cancelled)
        return false;
    e->cancelled = true;
    e->cb = nullptr;    // drop captured resources eagerly
    --pending_;
    return true;
}

bool
EventQueue::step()
{
    // Not a run: runEnd_ stays 0, so tryAdvance() refuses inside it.
    Event *e = popEarliestLive(maxTick);
    if (!e)
        return false;
    execute(e);
    return true;
}

void
EventQueue::runUntil(Tick horizon)
{
    if (horizon == 0)
        return;
    const Tick limit = horizon - 1;
    runEnd_ = horizon;
    while (Event *e = popEarliestLive(limit))
        execute(e);
    runEnd_ = 0;
}

Tick
EventQueue::nextPendingTick()
{
    if (pending_ == 0)
        return maxTick;
    const Front f = frontLive();
    return f.e ? f.e->when : maxTick;
}

Tick
EventQueue::run(Tick limit)
{
    runEnd_ = limit == maxTick ? maxTick : limit + 1;
    while (Event *e = popEarliestLive(limit))
        execute(e);
    runEnd_ = 0;
    if (pending_ != 0 && now_ < limit)
        now_ = limit;
    return now_;
}

} // namespace cpx
