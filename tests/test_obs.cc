/**
 * @file
 * Tests for the protocol flight recorder (src/obs): the record ring,
 * the zero-cost disabled path, the Chrome-trace-event exporter, the
 * human-readable tail dumps, and their integration with the stall
 * diagnostics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "bench/runner.hh"
#include "check/watchdog.hh"
#include "core/config.hh"
#include "core/report.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace cpx
{
namespace
{

MachineParams
smallParams(unsigned procs = 4)
{
    MachineParams params = makeParams(ProtocolConfig::pcwm());
    params.numProcs = procs;
    return params;
}

TraceRecord
rec(Tick tick, TraceKind kind, Addr addr = 0)
{
    TraceRecord r;
    r.tick = tick;
    r.kind = kind;
    r.addr = addr;
    return r;
}

// ---------------------------------------------------------------------------
// TraceRing
// ---------------------------------------------------------------------------

TEST(TraceRing, FillsToCapacity)
{
    TraceRing ring(4);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.size(), 0u);
    for (Tick t = 1; t <= 3; ++t)
        ring.push(rec(t, TraceKind::MsgSend));
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.total(), 3u);
    EXPECT_EQ(ring.overwritten(), 0u);

    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap.front().tick, 1u);
    EXPECT_EQ(snap.back().tick, 3u);
}

TEST(TraceRing, OverwritesOldestWhenFull)
{
    TraceRing ring(3);
    for (Tick t = 1; t <= 7; ++t)
        ring.push(rec(t, TraceKind::TxnStart, 0x100 * t));
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.total(), 7u);
    EXPECT_EQ(ring.overwritten(), 4u);

    // The survivors are the newest three, oldest first.
    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].tick, 5u);
    EXPECT_EQ(snap[1].tick, 6u);
    EXPECT_EQ(snap[2].tick, 7u);
}

TEST(TraceRing, ExactlyFullSnapshotsInOrder)
{
    TraceRing ring(3);
    for (Tick t = 1; t <= 3; ++t)
        ring.push(rec(t, TraceKind::MsgRecv));
    EXPECT_EQ(ring.overwritten(), 0u);
    auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].tick, 1u);
    EXPECT_EQ(snap[2].tick, 3u);
}

// ---------------------------------------------------------------------------
// CPX_PROBE disabled path
// ---------------------------------------------------------------------------

TEST(TraceMacro, DisabledPathEvaluatesNoArguments)
{
    System sys(smallParams(2));
    unsigned evaluations = 0;
    auto expensive = [&evaluations]() -> Addr {
        ++evaluations;
        return 0x100;
    };
    ASSERT_EQ(sys.probes(), nullptr);
    CPX_PROBE(sys, onPrefetchIssue, 0, expensive());
    EXPECT_EQ(evaluations, 0u);
}

TEST(TraceMacro, RecordsThroughAnInstalledSink)
{
    System sys(smallParams(2));
    TraceSink sink(2, 8);
    sys.setTracer(&sink);
    CPX_PROBE(sys, onLockGrant, 1, 0x40, 7, 0, 0);
    EXPECT_EQ(sink.recorded(), 1u);
    auto snap = sink.ring(1).snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].kind, TraceKind::LockAcquire);
    EXPECT_EQ(snap[0].addr, 0x40u);
    EXPECT_EQ(snap[0].aux, 7u);
    EXPECT_EQ(sink.ring(0).size(), 0u);
}

// ---------------------------------------------------------------------------
// Observation-only: tracing cannot change simulated behaviour
// ---------------------------------------------------------------------------

TEST(TraceSinkIntegration, TracedRunStatsAreBitIdentical)
{
    MachineParams params = smallParams();

    System plain(params);
    auto w1 = makeWorkload("migratory", 0.1);
    WorkloadRun r1 = runWorkload(plain, *w1);

    System traced(params);
    TraceSink sink(params.numProcs, 64);
    traced.setTracer(&sink);
    auto w2 = makeWorkload("migratory", 0.1);
    WorkloadRun r2 = runWorkload(traced, *w2);

    EXPECT_GT(sink.recorded(), 0u);
    EXPECT_EQ(r1.execTime, r2.execTime);
    EXPECT_TRUE(r1.verified);
    EXPECT_TRUE(r2.verified);
    // The full stats dump covers every simulated counter.
    EXPECT_EQ(formatSystemStats(plain), formatSystemStats(traced));
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST(TraceSinkIntegration, ExportsBalancedChromeTraceJson)
{
    MachineParams params = smallParams();
    System sys(params);
    TraceSink sink(params.numProcs);
    sys.setTracer(&sink);
    auto w = makeWorkload("migratory", 0.1);
    WorkloadRun run = runWorkload(sys, *w);
    ASSERT_TRUE(run.verified);

    std::string json = sink.chromeTraceJson();
    bench::JsonValue doc;
    std::string error;
    ASSERT_TRUE(bench::parseJson(json, doc, error)) << error;
    ASSERT_TRUE(doc.has("traceEvents"));
    const auto &events = doc.at("traceEvents").items;
    EXPECT_GT(events.size(), params.numProcs);  // beyond metadata

    // Transactions become async spans; begins and ends must pair up
    // per id, and a real run produces at least one span.
    std::map<std::string, long> balance;
    std::size_t begins = 0;
    for (const bench::JsonValue &ev : events) {
        const std::string &ph = ev.at("ph").text;
        if (ph == "b" || ph == "e") {
            balance[ev.at("id").text] += ph == "b" ? 1 : -1;
            begins += ph == "b";
        }
    }
    EXPECT_GT(begins, 0u);
    for (const auto &[id, b] : balance)
        EXPECT_EQ(b, 0) << "unbalanced span id " << id;

    // The file form passes the harness validator used by CI.
    const std::string path = "test_obs_trace.json";
    ASSERT_TRUE(sink.writeChromeTrace(path, error)) << error;
    EXPECT_TRUE(bench::validateTraceFile(path, error)) << error;
    std::remove(path.c_str());
}

TEST(TraceSinkIntegration, FormatTailsDescribesRecentEvents)
{
    MachineParams params = smallParams(2);
    System sys(params);
    TraceSink sink(params.numProcs, 32);
    sys.setTracer(&sink);
    auto w = makeWorkload("migratory", 0.1);
    (void)runWorkload(sys, *w);

    std::string tails = sink.formatTails(4);
    EXPECT_NE(tails.find("=== flight recorder"), std::string::npos);
    EXPECT_NE(tails.find("node 0"), std::string::npos);
    EXPECT_NE(tails.find("node 1"), std::string::npos);
    EXPECT_NE(tails.find("txn-"), std::string::npos);
    EXPECT_NE(tails.find("recorded"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stall diagnostics integration
// ---------------------------------------------------------------------------

TEST(TraceDeathTest, WatchdogStallDumpsFlightRecorderTails)
{
    EXPECT_DEATH(
        {
            MachineParams params = smallParams(2);
            System sys(params);
            TraceSink sink(params.numProcs, 64);
            sys.setTracer(&sink);
            Addr lock = sys.heap().allocLock();
            Watchdog::Options opts;
            opts.interval = 10'000;
            Watchdog dog(sys, opts);
            dog.arm();
            sys.run([lock](Processor &p, unsigned id) {
                if (id == 0) {
                    p.lock(lock);
                    // exits the parallel section holding the lock
                } else {
                    p.compute(50);
                    p.lock(lock);  // never granted
                    p.unlock(lock);
                }
            });
        },
        "flight recorder");
}

TEST(TraceDeathTest, FailureHookDumpsTailsOnPanic)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            TraceSink sink(1, 8);
            sink.onMsgSend(0, 0, 64, MsgClass::Request, 1);
            sink.installFailureDump();
            panic("deliberate test panic");
        },
        "msg-send");  // only the tail dump prints record kinds
}

} // anonymous namespace
} // namespace cpx
