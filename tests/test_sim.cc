/**
 * @file
 * Unit tests for the simulation kernel: event queue, statistics,
 * RNG, resources, and fibers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fiber/fiber.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"

namespace cpx
{
namespace
{

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, BreaksTiesByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 10u);
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AccumulatorTracksMoments)
{
    Accumulator a;
    a.sample(1.0);
    a.sample(3.0);
    a.sample(2.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(Stats, HistogramBucketsAndOverflow)
{
    Histogram h(10, 4);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(39);
    h.sample(40);   // overflow
    h.sample(1000); // overflow
    EXPECT_EQ(h.bucketCounts()[0], 2u);
    EXPECT_EQ(h.bucketCounts()[1], 1u);
    EXPECT_EQ(h.bucketCounts()[3], 1u);
    EXPECT_EQ(h.overflowCount(), 2u);
}

TEST(Stats, AccumulatorMergeMatchesCombinedSampling)
{
    Accumulator a, b, ref;
    for (double v : {4.0, 1.0})
        a.sample(v), ref.sample(v);
    for (double v : {9.0, 2.0, 5.0})
        b.sample(v), ref.sample(v);
    a.merge(b);
    EXPECT_EQ(a.count(), ref.count());
    EXPECT_DOUBLE_EQ(a.sum(), ref.sum());
    EXPECT_DOUBLE_EQ(a.min(), ref.min());
    EXPECT_DOUBLE_EQ(a.max(), ref.max());

    Accumulator empty;
    a.merge(empty);  // no-op
    EXPECT_EQ(a.count(), ref.count());
    empty.merge(a);  // copies
    EXPECT_DOUBLE_EQ(empty.mean(), ref.mean());
}

TEST(Stats, HistogramMergeAddsBuckets)
{
    Histogram a(10, 4), b(10, 4);
    a.sample(5);
    a.sample(100);  // overflow
    b.sample(5);
    b.sample(25);
    a.merge(b);
    EXPECT_EQ(a.bucketCounts()[0], 2u);
    EXPECT_EQ(a.bucketCounts()[2], 1u);
    EXPECT_EQ(a.overflowCount(), 1u);
    EXPECT_EQ(a.summary().count(), 4u);
    EXPECT_DOUBLE_EQ(a.summary().max(), 100.0);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(7), b(7), c(8);
    bool any_diff = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, UniformStaysInUnitInterval)
{
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Resource, GrantsBackToBack)
{
    Resource r;
    EXPECT_EQ(r.reserve(0, 10), 0u);
    EXPECT_EQ(r.reserve(0, 10), 10u);   // queued behind first
    EXPECT_EQ(r.reserve(50, 10), 50u);  // idle gap
    EXPECT_EQ(r.totalBusy(), 30u);
    EXPECT_EQ(r.totalWait(), 10u);
}

TEST(Fiber, RunsToCompletion)
{
    int state = 0;
    Fiber f([&] { state = 42; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(state, 42);
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> trace;
    Fiber f([&] {
        trace.push_back(1);
        Fiber::yield();
        trace.push_back(3);
        Fiber::yield();
        trace.push_back(5);
    });
    f.resume();
    trace.push_back(2);
    f.resume();
    trace.push_back(4);
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksRunningFiber)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *seen = nullptr;
    Fiber f([&] { seen = Fiber::current(); });
    f.resume();
    EXPECT_EQ(seen, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ManyFibersInterleave)
{
    std::vector<int> log;
    std::vector<std::unique_ptr<Fiber>> fibers;
    for (int i = 0; i < 4; ++i) {
        fibers.push_back(std::make_unique<Fiber>([&log, i] {
            log.push_back(i);
            Fiber::yield();
            log.push_back(i + 10);
        }));
    }
    for (auto &f : fibers)
        f->resume();
    for (auto &f : fibers)
        f->resume();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13}));
}

} // anonymous namespace
} // namespace cpx
