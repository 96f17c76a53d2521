/**
 * @file
 * The calendar-queue kernel against a reference heap.
 *
 * The rewritten EventQueue (two-level bucket calendar + event pool +
 * inline callbacks) must be observationally identical to the textbook
 * implementation it replaced: a binary heap ordered by (tick,
 * insertion sequence). These tests drive both models with the same
 * deterministic script — including nested scheduling from inside
 * callbacks, run-limit truncation and delays that straddle the ring /
 * overflow boundary — and require the execution orders to match
 * event-for-event. Pool reuse under cancel/reschedule and the
 * InlineFunction heap-fallback path are covered separately.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/logging.hh"

namespace cpx
{
namespace
{

/**
 * The pre-rewrite model: a binary heap of (when, insertion seq, id),
 * earliest tick first, same-tick ties broken by insertion order.
 * run(limit) mirrors EventQueue::run: execute everything with
 * when <= limit, then pin now to the limit if work remains.
 */
class ReferenceHeap
{
  public:
    void
    schedule(Tick when, int id)
    {
        heap.push({when, seq++, id});
    }

    template <typename Fire>
    Tick
    run(Tick limit, Fire &&fire)
    {
        while (!heap.empty() && heap.top().when <= limit) {
            Entry e = heap.top();
            heap.pop();
            now = e.when;
            fire(e.id);
        }
        if (!heap.empty() && now < limit)
            now = limit;
        return now;
    }

    Tick now = 0;

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        int id;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, Later> heap;
    std::uint64_t seq = 0;
};

/** splitmix64-style hash: one deterministic decision stream per id. */
std::uint64_t
mix(std::uint64_t seed, std::uint64_t id)
{
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ull +
                      id * 0xBF58476D1CE4E5B9ull +
                      0xD6E8FEB86659FD93ull;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

/**
 * Delays chosen to land in every region of the calendar: same tick,
 * next tick, deep inside the ring, exactly at and just past the
 * 2048-tick ring window (overflow tree), and far future (forces a
 * horizon jump when the ring drains).
 */
constexpr Tick delayTable[] = {0,    1,    2,    7,    63,   500,
                               2047, 2048, 2049, 5000, 100000};
constexpr std::size_t numDelays =
    sizeof(delayTable) / sizeof(delayTable[0]);

/**
 * Both models execute the same script: each event's id determines
 * (via mix) how many follow-ups it schedules and at which delays, so
 * identical execution order implies identical id assignment for the
 * follow-ups, inductively. Any divergence in ordering therefore shows
 * up as a difference in the recorded id sequences.
 */
struct ScriptedRun
{
    std::uint64_t seed;
    int cap;                 //!< stop spawning follow-ups past this
    int created = 0;
    std::vector<int> order;  //!< ids in execution order

    virtual ~ScriptedRun() = default;
    virtual void spawnAt(Tick when, int id) = 0;
    virtual Tick timeNow() const = 0;

    int
    spawn(Tick when)
    {
        int id = created++;
        spawnAt(when, id);
        return id;
    }

    void
    fire(int id)
    {
        order.push_back(id);
        std::uint64_t h = mix(seed, id);
        int followups = created < cap ? static_cast<int>(h % 3) : 0;
        for (int k = 0; k < followups; ++k) {
            Tick d = delayTable[(h >> (8 + 7 * k)) % numDelays];
            spawn(timeNow() + d);
        }
    }
};

struct RealRun : ScriptedRun
{
    EventQueue eq;

    void
    spawnAt(Tick when, int id) override
    {
        eq.schedule(when, [this, id] { fire(id); });
    }

    Tick timeNow() const override { return eq.now(); }
};

struct RefRun : ScriptedRun
{
    ReferenceHeap heap;

    void
    spawnAt(Tick when, int id) override
    {
        heap.schedule(when, id);
    }

    Tick timeNow() const override { return heap.now; }
};

TEST(EventQueueEquivalence, MatchesReferenceHeapOnRandomSchedules)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RealRun real;
        RefRun ref;
        real.seed = ref.seed = seed;
        real.cap = ref.cap = 4000;

        // Seed both models with the same initial batch, spread across
        // several ring windows.
        for (int i = 0; i < 64; ++i) {
            Tick when = mix(seed ^ 0xABCDEF, i) % 8000;
            real.spawn(when);
            ref.spawn(when);
        }
        ASSERT_EQ(real.created, ref.created);

        // Run in truncated chunks, injecting fresh events between the
        // chunks. After a chunk ends inside an empty stretch the real
        // queue's horizon may sit far ahead of now, so some of these
        // injections land below the ring window and exercise the
        // direct-from-overflow "gap" path.
        constexpr Tick limits[] = {700, 2500, 2600, 40000, maxTick};
        for (Tick limit : limits) {
            Tick tReal = real.eq.run(limit);
            Tick tRef = ref.heap.run(
                limit, [&ref](int id) { ref.fire(id); });
            ASSERT_EQ(tReal, tRef) << "seed " << seed << " limit "
                                   << limit;
            if (limit == maxTick)
                break;
            for (int i = 0; i < 4; ++i) {
                Tick d = delayTable[mix(seed ^ limit, i) % numDelays];
                real.spawn(tReal + d);
                ref.spawn(tRef + d);
            }
        }

        ASSERT_EQ(real.order, ref.order) << "seed " << seed;
        EXPECT_GT(real.order.size(), 100u) << "seed " << seed;
        EXPECT_TRUE(real.eq.empty());
        EXPECT_EQ(real.eq.executed(), real.order.size());
    }
}

TEST(EventQueueEquivalence, SameTickOrderSurvivesOverflowMigration)
{
    // Ten same-tick events, half scheduled while the tick is beyond
    // the ring window (overflow tree), half after a horizon advance
    // moved the tick into the ring. Insertion order must hold across
    // the migration.
    EventQueue eq;
    std::vector<int> order;
    constexpr Tick target = 5000;

    for (int i = 0; i < 5; ++i)
        eq.schedule(target, [&order, i] { order.push_back(i); });

    // Executing an event at 2996 pulls the horizon up; 5000 is then
    // inside [2996, 2996 + 2048) and the overflow list migrates into
    // a ring bucket.
    eq.schedule(2996, [&] {
        for (int i = 5; i < 10; ++i)
            eq.schedule(target, [&order, i] { order.push_back(i); });
    });

    eq.run();
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueEquivalence, GapEventBelowHorizonAfterTruncatedRun)
{
    // Only a far-future event is pending, so run(50) jumps the
    // horizon to 100000 while now is pinned back to 50. An event
    // scheduled at 60 now lies below the ring window ("gap") and must
    // still execute first.
    EventQueue eq;
    std::vector<Tick> fired;
    eq.schedule(100000, [&] { fired.push_back(eq.now()); });

    EXPECT_EQ(eq.run(50), 50u);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(eq.pending(), 1u);

    eq.schedule(60, [&] { fired.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], 60u);
    EXPECT_EQ(fired[1], 100000u);
}

TEST(EventQueuePool, CancelPreventsExecution)
{
    EventQueue eq;
    int ran = 0;
    EventQueue::EventId id =
        eq.schedule(100, [&ran] { ++ran; });
    ASSERT_TRUE(static_cast<bool>(id));
    EXPECT_EQ(eq.pending(), 1u);

    EXPECT_TRUE(eq.cancel(id));
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.cancel(id));  // second cancel: stale handle

    eq.schedule(100, [&ran] { ran += 10; });
    eq.run();
    EXPECT_EQ(ran, 10);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueuePool, StaleIdAfterExecutionIsRejected)
{
    // After the event fires its node returns to the pool and may be
    // handed to a new schedule(); the generation tag must keep the
    // old handle from cancelling the new tenant.
    EventQueue eq;
    int ran = 0;
    EventQueue::EventId id = eq.schedule(10, [&ran] { ++ran; });
    eq.run();
    EXPECT_EQ(ran, 1);
    EXPECT_FALSE(eq.cancel(id));

    int ran2 = 0;
    eq.schedule(20, [&ran2] { ++ran2; });
    EXPECT_FALSE(eq.cancel(id));  // node likely reused; still stale
    eq.run();
    EXPECT_EQ(ran2, 1);
}

TEST(EventQueuePool, ReuseUnderCancelRescheduleIsAllocationFree)
{
    EventQueue eq;

    // Warm the pool: one chunk refill is expected, then the free
    // list must satisfy everything below.
    int warm = 0;
    for (int i = 0; i < 32; ++i)
        eq.schedule(i, [&warm] { ++warm; });
    eq.run();
    EXPECT_EQ(warm, 32);
    std::uint64_t allocsAfterWarmup = eq.scheduleAllocs();

    int ran = 0;
    for (int round = 0; round < 10000; ++round) {
        Tick base = eq.now();
        EventQueue::EventId a =
            eq.schedule(base + 5, [&ran] { ++ran; });
        EventQueue::EventId b =
            eq.schedule(base + 5, [&ran] { ran += 100; });
        EXPECT_TRUE(eq.cancel(a));
        // Reschedule the same work later; the cancelled node is
        // reclaimed as the queue sweeps past its tick.
        eq.schedule(base + 7, [&ran] { ++ran; });
        eq.run(base + 10);
        EXPECT_FALSE(eq.cancel(b));  // already fired
    }
    EXPECT_EQ(ran, 10000 * 101);
    EXPECT_EQ(eq.executed(), 32u + 2 * 10000u);
    EXPECT_EQ(eq.pending(), 0u);

    // All small inline callbacks, pool always warm: zero further
    // allocations across 30000 schedules.
    EXPECT_EQ(eq.scheduleAllocs(), allocsAfterWarmup);
    EXPECT_GE(eq.peakPending(), 2u);
}

TEST(InlineCallback, SmallCaptureStaysInline)
{
    int x = 0;
    InlineFunction<80> f([&x] { x = 42; });
    EXPECT_TRUE(static_cast<bool>(f));
    EXPECT_FALSE(f.onHeap());
    f();
    EXPECT_EQ(x, 42);
}

TEST(InlineCallback, OversizedCaptureFallsBackToHeap)
{
    std::array<char, 200> big{};
    big[0] = 7;
    big[199] = 9;
    int sum = 0;
    InlineFunction<80> f(
        [big, &sum] { sum = big[0] + big[199]; });
    EXPECT_TRUE(f.onHeap());
    f();
    EXPECT_EQ(sum, 16);

    // Move semantics transfer the heap cell, not copy it.
    InlineFunction<80> g(std::move(f));
    EXPECT_FALSE(static_cast<bool>(f));
    EXPECT_TRUE(g.onHeap());
    sum = 0;
    g();
    EXPECT_EQ(sum, 16);
}

TEST(InlineCallback, MoveOnlyCaptureWorks)
{
    auto p = std::make_unique<int>(11);
    int got = 0;
    InlineFunction<80> f([p = std::move(p), &got] { got = *p; });
    EXPECT_FALSE(f.onHeap());
    InlineFunction<80> g = std::move(f);
    g();
    EXPECT_EQ(got, 11);
}

TEST(InlineCallback, QueueCountsHeapFallbacksAsScheduleAllocs)
{
    EventQueue eq;

    // Drain one pool chunk's worth first so the only allocations
    // counted below come from the callback fallback path.
    for (int i = 0; i < 300; ++i)
        eq.schedule(i, [] {});
    eq.run();
    std::uint64_t base = eq.scheduleAllocs();

    int small = 0;
    eq.schedule(eq.now() + 1, [&small] { ++small; });
    EXPECT_EQ(eq.scheduleAllocs(), base);  // inline: no alloc

    std::array<char, 200> big{};
    big[5] = 1;
    int large = 0;
    eq.schedule(eq.now() + 2,
                [big, &large] { large = big[5]; });
    EXPECT_EQ(eq.scheduleAllocs(), base + 1);  // heap fallback

    eq.run();
    EXPECT_EQ(small, 1);
    EXPECT_EQ(large, 1);
}

// ---------------------------------------------------------------------------
// tryAdvance: the wakeup-elision primitive
// ---------------------------------------------------------------------------

TEST(EventQueueAdvance, RefusesOutsideARunAndInStep)
{
    EventQueue eq;
    EXPECT_FALSE(eq.tryAdvance(0));
    EXPECT_FALSE(eq.tryAdvance(5));

    bool advanced = true;
    eq.schedule(3, [&] { advanced = eq.tryAdvance(4); });
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(advanced);
    EXPECT_EQ(eq.now(), 3u);

    // A finished run leaves the queue outside a run again.
    eq.schedule(7, [] {});
    eq.run();
    EXPECT_FALSE(eq.tryAdvance(9));
    EXPECT_EQ(eq.now(), 7u);
    EXPECT_EQ(eq.elided(), 0u);
}

TEST(EventQueueAdvance, RefusesAtAndBeyondTheRunLimit)
{
    // runUntil(horizon) runs ticks below the horizon only.
    EventQueue slab;
    std::vector<bool> got;
    slab.schedule(10, [&] {
        got.push_back(slab.tryAdvance(101));
        got.push_back(slab.tryAdvance(100));
        got.push_back(slab.tryAdvance(99));
    });
    slab.runUntil(100);
    EXPECT_EQ(got, (std::vector<bool>{false, false, true}));
    EXPECT_EQ(slab.now(), 99u);

    // run(limit) runs ticks up to and including the limit.
    EventQueue whole;
    got.clear();
    whole.schedule(10, [&] {
        got.push_back(whole.tryAdvance(101));
        got.push_back(whole.tryAdvance(100));
    });
    whole.run(100);
    EXPECT_EQ(got, (std::vector<bool>{false, true}));
    EXPECT_EQ(whole.now(), 100u);
    EXPECT_EQ(slab.elided() + whole.elided(), 2u);
}

TEST(EventQueueAdvance, RefusesWhenALiveEventIsDueByTheTarget)
{
    EventQueue eq;
    std::vector<bool> got;
    std::vector<Tick> fired;
    eq.schedule(10, [&] {
        got.push_back(eq.tryAdvance(25));  // event at 20 below
        got.push_back(eq.tryAdvance(20));  // event at 20 equal
        got.push_back(eq.tryAdvance(10));  // same-tick event pending
    });
    eq.schedule(10, [&] { fired.push_back(eq.now()); });
    eq.schedule(20, [&] {
        fired.push_back(eq.now());
        got.push_back(eq.tryAdvance(19));  // in the past
        got.push_back(eq.tryAdvance(20));  // now, nothing else due
    });
    eq.run();
    EXPECT_EQ(got, (std::vector<bool>{false, false, false, false, true}));
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(eq.executed(), 3u);
    EXPECT_EQ(eq.elided(), 1u);
}

TEST(EventQueueAdvance, CancelledEventsDoNotBlock)
{
    // One cancelled event inside the ring window, one in the
    // overflow tree; the advance reclaims both.
    EventQueue eq;
    int ran = 0;
    EventQueue::EventId near = eq.schedule(15, [&] { ++ran; });
    EventQueue::EventId far = eq.schedule(5000, [&] { ++ran; });
    bool advanced = false;
    eq.schedule(10, [&] {
        EXPECT_TRUE(eq.cancel(near));
        EXPECT_TRUE(eq.cancel(far));
        advanced = eq.tryAdvance(6000);
    });
    eq.run();
    EXPECT_TRUE(advanced);
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(eq.now(), 6000u);
    EXPECT_EQ(eq.executed(), 1u);
    EXPECT_EQ(eq.elided(), 1u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueueAdvance, LaterSchedulesKeepTickAndInsertionOrder)
{
    // After an advance the ring window starts at the new now(): events
    // scheduled at now(), inside the window and beyond it (overflow,
    // including a tick already holding an older event) must still pop
    // in (tick, insertion) order.
    EventQueue eq;
    std::vector<int> order;
    auto mark = [&order](int id) {
        return [&order, id] { order.push_back(id); };
    };
    eq.schedule(300, mark(3));
    eq.schedule(9000, mark(7));
    eq.schedule(10, [&] {
        ASSERT_TRUE(eq.tryAdvance(100));
        EXPECT_EQ(eq.now(), 100u);
        eq.schedule(9000, mark(8));     // overflow, same tick as 7
        eq.schedule(300, mark(4));      // ring, same tick as 3
        eq.schedule(100, mark(0));      // at now()
        eq.schedule(3100, mark(6));     // beyond the window
        eq.schedule(150, mark(2));      // inside the window
        eq.schedule(100, mark(1));      // at now(), second
        eq.schedule(2147, mark(5));     // window's last tick
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(eq.executed(), 10u);
}

TEST(EventQueueAdvance, LoggerTickSourceReadsTheAdvancedTick)
{
    EventQueue eq;
    std::uint64_t seen = 0;
    eq.schedule(5, [&] {
        ASSERT_TRUE(eq.tryAdvance(42));
        seen = Logger::currentTick();
    });
    eq.run();
    EXPECT_EQ(seen, 42u);
}

} // namespace
} // namespace cpx
