/**
 * @file
 * Tests for causal stall attribution (src/obs/attrib.hh): recording
 * neutrality (full stats-dump bit-identity with the sink installed,
 * at one and at four kernel workers), worker-count independence of
 * the aggregate, the telescoping segment-sum invariant, the exact
 * two-pointer join on synthesized records, deterministic hot-table
 * tie-breaks, the point-record round trip, Perfetto counter tracks in
 * the Chrome-trace exporter, sparse-input robustness of the report
 * generator, and a golden-file check of the report's attribution
 * sections against the committed sweep in tests/data/.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "bench/report_gen.hh"
#include "bench/runner.hh"
#include "core/config.hh"
#include "core/report.hh"
#include "obs/attrib.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
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

unsigned
uniformHop(NodeId src, NodeId dst)
{
    return src == dst ? 0 : 1;
}

/** Run mp3d (locks + coherence traffic) with an attribution sink. */
WorkloadRun
attributedRun(unsigned sim_threads)
{
    MachineParams params = smallParams();
    System sys(params, sim_threads);
    AttribSink sink(params.numProcs);
    sys.setAttrib(&sink);
    auto w = makeWorkload("mp3d", 0.1);
    return runWorkload(sys, *w);
}

// ---------------------------------------------------------------------------
// Neutrality: attribution cannot change simulated behaviour
// ---------------------------------------------------------------------------

TEST(AttribNeutrality, FullStatsDumpBitIdentical)
{
    MachineParams params = smallParams();

    System plain(params);
    auto w1 = makeWorkload("mp3d", 0.1);
    WorkloadRun r1 = runWorkload(plain, *w1);

    System attributed(params);
    AttribSink sink(params.numProcs);
    attributed.setAttrib(&sink);
    auto w2 = makeWorkload("mp3d", 0.1);
    WorkloadRun r2 = runWorkload(attributed, *w2);

    ASSERT_TRUE(r1.verified);
    ASSERT_TRUE(r2.verified);
    EXPECT_GT(sink.recorded(), 0u);
    EXPECT_GT(r2.stats.attribution.matchedTxns, 0u);
    EXPECT_EQ(r1.execTime, r2.execTime);
    // The sink schedules no events and touches no protocol state, so
    // even the kernel telemetry lines must match — the FULL dump is
    // compared, with nothing stripped.
    EXPECT_EQ(formatSystemStats(plain), formatSystemStats(attributed));
}

TEST(AttribNeutrality, FullStatsDumpBitIdenticalUnderParallelKernel)
{
    MachineParams params = smallParams();

    System plain(params, 4);
    auto w1 = makeWorkload("mp3d", 0.1);
    WorkloadRun r1 = runWorkload(plain, *w1);

    System attributed(params, 4);
    AttribSink sink(params.numProcs);
    attributed.setAttrib(&sink);
    auto w2 = makeWorkload("mp3d", 0.1);
    WorkloadRun r2 = runWorkload(attributed, *w2);

    ASSERT_TRUE(r1.verified);
    ASSERT_TRUE(r2.verified);
    EXPECT_EQ(r1.execTime, r2.execTime);
    EXPECT_EQ(formatSystemStats(plain), formatSystemStats(attributed));
}

// ---------------------------------------------------------------------------
// Slab safety: the aggregate is independent of --sim-threads
// ---------------------------------------------------------------------------

TEST(AttribParallel, AggregateIdenticalAcrossWorkerCounts)
{
    WorkloadRun w1 = attributedRun(1);
    WorkloadRun w4 = attributedRun(4);
    ASSERT_TRUE(w1.verified);
    ASSERT_TRUE(w4.verified);

    const AttributionResult &a = w1.stats.attribution;
    const AttributionResult &b = w4.stats.attribution;
    EXPECT_GT(a.matchedTxns, 0u);
    EXPECT_EQ(a.matchedTxns, b.matchedTxns);
    EXPECT_EQ(a.unmatchedDir, b.unmatchedDir);
    EXPECT_EQ(a.matchedLocks, b.matchedLocks);
    EXPECT_EQ(a.fanoutTotal, b.fanoutTotal);
    EXPECT_EQ(a.fanoutImprecise, b.fanoutImprecise);
    // The rendered aggregate covers every matrix cell, home row, and
    // hot-table entry, so string equality is full-struct equality.
    EXPECT_EQ(formatAttribution(a), formatAttribution(b));
}

// ---------------------------------------------------------------------------
// Segment telescoping: attributed ticks never exceed measured latency
// ---------------------------------------------------------------------------

TEST(AttribInvariants, SegmentSumNeverExceedsLatency)
{
    WorkloadRun run = attributedRun(1);
    ASSERT_TRUE(run.verified);
    const AttributionResult &ar = run.stats.attribution;
    ASSERT_TRUE(ar.enabled);

    bool any = false;
    for (unsigned c = 0; c < numTxnKinds; ++c) {
        const AttribSegments &row = ar.classes[c];
        if (!row.count)
            continue;
        any = true;
        const char *name = txnKindName(static_cast<TxnKind>(c));
        EXPECT_LE(row.segmentSum(), row.latency) << name;
        EXPECT_GT(row.latency, 0u) << name;
    }
    EXPECT_TRUE(any);

    // mp3d takes locks; the home-queue share can never exceed the
    // end-to-end acquire latency, and the split must telescope.
    EXPECT_GT(ar.locks.count, 0u);
    EXPECT_LE(ar.locks.homeQueue, ar.locks.latency);
    EXPECT_EQ(ar.locks.homeQueue + ar.locks.transfer,
              ar.locks.latency);
}

// ---------------------------------------------------------------------------
// The two-pointer join, on synthesized records
// ---------------------------------------------------------------------------

AttribRecord
txnDone(NodeId node, Addr addr, unsigned kind_code, Tick issue,
        Tick delivered, Tick completed)
{
    AttribRecord r;
    r.kind = AttribRecord::Kind::TxnDone;
    r.node = static_cast<std::uint16_t>(node);
    r.aux = kind_code;
    r.addr = addr;
    r.t0 = issue;
    r.t1 = delivered;
    r.t2 = completed;
    return r;
}

AttribRecord
dirDone(NodeId home, Addr addr, NodeId requester, unsigned cls,
        Tick enq, Tick deq, Tick acted, Tick fanout_sent,
        Tick last_resp, Tick done, std::uint8_t flags = 0)
{
    AttribRecord r;
    r.kind = AttribRecord::Kind::DirDone;
    r.flags = flags;
    r.node = static_cast<std::uint16_t>(home);
    r.aux = requester | (cls << 16);
    r.addr = addr;
    r.t0 = enq;
    r.t1 = deq;
    r.t2 = acted;
    r.t3 = fanout_sent;
    r.t4 = last_resp;
    r.t5 = done;
    return r;
}

TEST(AttribJoin, TelescopesOneReadExactly)
{
    AttribSink sink(2);
    sink.record(0, dirDone(0, 0x100, 1, 0 /* Read */, 10, 12, 14, 0,
                           0, 20));
    sink.record(1, txnDone(1, 0x100, 0 /* Read */, 5, 25, 30));

    AttributionResult ar = aggregateAttribution(
        sink, [](NodeId s, NodeId d) { return s == d ? 0u : 3u; });

    EXPECT_EQ(ar.matchedTxns, 1u);
    EXPECT_EQ(ar.unmatchedDir, 0u);
    const AttribSegments &row =
        ar.classes[static_cast<unsigned>(TxnKind::Read)];
    EXPECT_EQ(row.count, 1u);
    EXPECT_EQ(row.latency, 25u);     // 30 - 5
    EXPECT_EQ(row.request, 5u);      // 10 - 5
    EXPECT_EQ(row.dirQueue, 2u);     // 12 - 10
    EXPECT_EQ(row.dirService, 2u);   // 14 - 12
    EXPECT_EQ(row.ownerFetch, 0u);
    EXPECT_EQ(row.invalFanout, 0u);
    EXPECT_EQ(row.ackCollect, 0u);
    EXPECT_EQ(row.dataReturn, 5u);   // 25 - 20
    EXPECT_EQ(row.fill, 5u);         // 30 - 25
    EXPECT_EQ(row.dataHops, 3u);
    EXPECT_LE(row.segmentSum(), row.latency);

    ASSERT_EQ(ar.homes.size(), 1u);
    EXPECT_EQ(ar.homes[0].node, 0u);
    EXPECT_EQ(ar.homes[0].dirRequests, 1u);
    EXPECT_EQ(ar.homes[0].dirWaitTotal, 2u);
}

TEST(AttribJoin, FanOutSegmentsAndPrecisionCounters)
{
    AttribSink sink(2);
    sink.record(0, dirDone(0, 0x200, 1, 2 /* WriteMiss */, 10, 11,
                           13, 14, 18, 19,
                           AttribRecord::flagImprecise));
    sink.record(1, txnDone(1, 0x200, 2 /* WriteMiss */, 5, 22, 24));

    AttributionResult ar =
        aggregateAttribution(sink, uniformHop);

    const AttribSegments &row =
        ar.classes[static_cast<unsigned>(TxnKind::WriteMiss)];
    EXPECT_EQ(row.count, 1u);
    EXPECT_EQ(row.invalFanout, 4u);  // 18 - 14: max-over-sharers RTT
    EXPECT_EQ(row.ackCollect, 1u);   // 19 - 18
    EXPECT_EQ(row.ownerFetch, 0u);
    EXPECT_EQ(ar.fanoutTotal, 1u);
    EXPECT_EQ(ar.fanoutImprecise, 1u);
}

TEST(AttribJoin, WriteBackAggregatesHomeOnly)
{
    AttribSink sink(1);
    sink.record(0, dirDone(0, 0x300, 0, 5 /* WriteBack */, 100, 104,
                           106, 0, 0, 110));

    AttributionResult ar =
        aggregateAttribution(sink, uniformHop);

    EXPECT_EQ(ar.matchedTxns, 0u);
    EXPECT_EQ(ar.unmatchedDir, 0u);  // write-backs are not "unmatched"
    const AttribSegments &row =
        ar.classes[static_cast<unsigned>(TxnKind::WriteBack)];
    EXPECT_EQ(row.count, 1u);
    EXPECT_EQ(row.latency, 10u);
    EXPECT_EQ(row.dirQueue, 4u);
    EXPECT_EQ(row.dirService, 2u);
}

TEST(AttribJoin, TruncatedRunCountsUnmatched)
{
    AttribSink sink(2);
    // A home record whose transaction never completed (run hit
    // --limit): no requester-side record exists.
    sink.record(0, dirDone(0, 0x400, 1, 0, 10, 12, 14, 0, 0, 20));

    AttributionResult ar =
        aggregateAttribution(sink, uniformHop);
    EXPECT_EQ(ar.matchedTxns, 0u);
    EXPECT_EQ(ar.unmatchedDir, 1u);
}

// ---------------------------------------------------------------------------
// Lock split and deterministic hot-table tie-breaks
// ---------------------------------------------------------------------------

AttribRecord
lockGrant(NodeId home, Addr addr, NodeId grantee, Tick arrived,
          Tick sent)
{
    AttribRecord r;
    r.kind = AttribRecord::Kind::LockGrant;
    r.node = static_cast<std::uint16_t>(home);
    r.aux = grantee;
    r.addr = addr;
    r.t0 = arrived;
    r.t1 = sent;
    return r;
}

AttribRecord
lockDone(NodeId node, Addr addr, Tick issue, Tick granted)
{
    AttribRecord r;
    r.kind = AttribRecord::Kind::LockDone;
    r.node = static_cast<std::uint16_t>(node);
    r.addr = addr;
    r.t0 = issue;
    r.t1 = granted;
    return r;
}

TEST(AttribLocks, SplitsHomeQueueFromTransferAndBreaksTiesByAddr)
{
    AttribSink sink(2);
    // Lock 0x100: one acquire, 100 ticks queued at the home.
    sink.record(0, lockGrant(0, 0x100, 1, 10, 110));
    sink.record(1, lockDone(1, 0x100, 0, 150));
    // Lock 0x200: two acquires, 50 ticks queued each — the same
    // 100-tick total as 0x100, so the tie must break on address.
    sink.record(0, lockGrant(0, 0x200, 1, 200, 250));
    sink.record(0, lockGrant(0, 0x200, 1, 300, 350));
    sink.record(1, lockDone(1, 0x200, 190, 260));
    sink.record(1, lockDone(1, 0x200, 290, 360));

    AttributionResult ar =
        aggregateAttribution(sink, uniformHop);

    EXPECT_EQ(ar.matchedLocks, 3u);
    EXPECT_EQ(ar.locks.count, 3u);
    EXPECT_EQ(ar.locks.latency, 290u);    // 150 + 70 + 70
    EXPECT_EQ(ar.locks.homeQueue, 200u);  // 100 + 50 + 50
    EXPECT_EQ(ar.locks.transfer, 90u);

    ASSERT_EQ(ar.hotLocks.size(), 2u);
    EXPECT_EQ(ar.hotLocks[0].addr, 0x100u);  // tie -> lower address
    EXPECT_EQ(ar.hotLocks[0].count, 1u);
    EXPECT_EQ(ar.hotLocks[0].totalWait, 100u);
    EXPECT_EQ(ar.hotLocks[1].addr, 0x200u);
    EXPECT_EQ(ar.hotLocks[1].count, 2u);
    EXPECT_EQ(ar.hotLocks[1].totalWait, 100u);
}

// ---------------------------------------------------------------------------
// Point-record round trip (the record the worker pipe carries)
// ---------------------------------------------------------------------------

TEST(AttribWire, RoundTripsThroughWireFormat)
{
    // A real aggregate with every table populated.
    AttribSink sink(2);
    sink.record(0, dirDone(0, 0x100, 1, 0, 10, 12, 14, 0, 0, 20));
    sink.record(1, txnDone(1, 0x100, 0, 5, 25, 30));
    sink.record(0, lockGrant(0, 0x500, 1, 10, 110));
    sink.record(1, lockDone(1, 0x500, 0, 150));

    bench::SweepResult res;
    res.status = bench::PointStatus::Ok;
    res.run.verified = true;
    res.run.execTime = 1234;
    res.run.stats.attribution =
        aggregateAttribution(sink, uniformHop);
    const AttributionResult &a = res.run.stats.attribution;
    ASSERT_FALSE(a.homes.empty());
    ASSERT_FALSE(a.hotBlocks.empty());
    ASSERT_FALSE(a.hotLocks.empty());

    std::string line = bench::writePoint(res);
    bench::SweepResult parsed;
    std::string error;
    ASSERT_TRUE(bench::readPoint(line, parsed, error)) << error;
    const AttributionResult &b = parsed.run.stats.attribution;
    ASSERT_TRUE(b.enabled);
    // The whole record — join counters, home rows and their p99
    // doubles included — and the rendered matrix and hot tables.
    EXPECT_EQ(bench::writePoint(parsed), line);
    EXPECT_EQ(formatAttribution(a), formatAttribution(b));
}

TEST(AttribWire, AbsentBlockParsesAsDisabled)
{
    // Without --attrib the block is absent and decodes as disabled.
    bench::SweepResult res;
    res.status = bench::PointStatus::Ok;
    res.run.verified = true;
    ASSERT_FALSE(res.run.stats.attribution.enabled);

    std::string line = bench::writePoint(res);
    EXPECT_EQ(line.find("attribution"), std::string::npos);
    bench::SweepResult parsed;
    std::string error;
    ASSERT_TRUE(bench::readPoint(line, parsed, error)) << error;
    EXPECT_FALSE(parsed.run.stats.attribution.enabled);
}

// ---------------------------------------------------------------------------
// Perfetto counter tracks in the Chrome-trace exporter
// ---------------------------------------------------------------------------

TEST(AttribCounterTracks, ExporterEmitsValidCounterEvents)
{
    System sys(makeParams(ProtocolConfig::basic()));
    TraceSink sink(sys.params().numProcs, 8);
    sys.setTracer(&sink);
    CPX_PROBE(sys, onMsgSend, 0, 1, 0x40, MsgClass::Request, 1);

    MetricTimeSeries series;
    series.interval = 100;
    series.names = {"net.bytes", "node0.busy"};
    series.ticks = {100, 200};
    series.deltas = {5, 9, 7, 11};  // row-major, 2 rows x 2 cols

    std::string json = sink.chromeTraceJson(&series);
    bench::JsonValue doc;
    std::string error;
    ASSERT_TRUE(bench::parseJson(json, doc, error)) << error;
    std::size_t counters = 0;
    for (const bench::JsonValue &ev : doc.at("traceEvents").items) {
        if (ev.at("ph").text != "C")
            continue;
        ++counters;
        EXPECT_TRUE(ev.has("args"));
        EXPECT_TRUE(ev.at("args").has("value"));
    }
    EXPECT_EQ(counters, 4u);

    const std::string path = "test_attrib_trace.json";
    ASSERT_TRUE(sink.writeChromeTrace(path, error, &series)) << error;
    EXPECT_TRUE(bench::validateTraceFile(path, error)) << error;
    std::remove(path.c_str());
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good());
    out << content;
}

TEST(AttribCounterTracks, ValidatorRejectsMalformedCounters)
{
    const std::string path = "test_attrib_bad_trace.json";
    std::string error;

    // Counter without a numeric args.value.
    writeFile(path,
              "{\"traceEvents\":["
              "{\"ph\":\"C\",\"pid\":0,\"ts\":10,\"name\":\"m\"}"
              "]}");
    EXPECT_FALSE(bench::validateTraceFile(path, error));
    EXPECT_NE(error.find("args.value"), std::string::npos) << error;

    // Counter track going backwards in time.
    writeFile(path,
              "{\"traceEvents\":["
              "{\"ph\":\"C\",\"pid\":0,\"ts\":200,\"name\":\"m\","
              "\"args\":{\"value\":1}},"
              "{\"ph\":\"C\",\"pid\":0,\"ts\":100,\"name\":\"m\","
              "\"args\":{\"value\":2}}"
              "]}");
    EXPECT_FALSE(bench::validateTraceFile(path, error));
    EXPECT_NE(error.find("backwards"), std::string::npos) << error;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Report generator: sparse inputs and the attribution sections
// ---------------------------------------------------------------------------

std::string
readFile(const std::string &path)
{
    std::ifstream file(path);
    EXPECT_TRUE(file.good()) << "cannot open " << path;
    return std::string(std::istreambuf_iterator<char>(file),
                       std::istreambuf_iterator<char>());
}

TEST(AttribReport, SparseInputsRenderNoDataNotes)
{
    bench::ReportOptions opts;
    std::string report, error;

    // Zero points: well-formed report, not a failure.
    bench::JsonValue doc;
    ASSERT_TRUE(bench::parseJson(
        "{\"schema\": \"cpx-sweep-1\", \"points\": []}", doc, error))
        << error;
    ASSERT_TRUE(bench::generateReport(doc, opts, report, error))
        << error;
    EXPECT_NE(report.find("no usable sweep points"),
              std::string::npos);
    EXPECT_NE(report.find("Where the cycles went"),
              std::string::npos);
    EXPECT_NE(report.find("no data"), std::string::npos);

    // Every point failed: same degradation. (parseJson appends into
    // its output value, so each parse gets a fresh document.)
    bench::JsonValue failed_doc;
    ASSERT_TRUE(bench::parseJson(
        "{\"schema\": \"cpx-sweep-1\", \"points\": [{\"tag\": \"t\","
        " \"app\": \"mp3d\", \"status\": \"crash\","
        " \"error\": \"boom\", \"verified\": false}]}",
        failed_doc, error))
        << error;
    ASSERT_TRUE(bench::generateReport(failed_doc, opts, report,
                                      error))
        << error;
    EXPECT_NE(report.find("skipped: 1 failed point"),
              std::string::npos);

    // Only a missing schema marker is a hard failure.
    bench::JsonValue bare_doc;
    ASSERT_TRUE(bench::parseJson("{\"points\": []}", bare_doc, error))
        << error;
    EXPECT_FALSE(bench::generateReport(bare_doc, opts, report,
                                       error));
}

TEST(AttribReport, GoldenAttributionSections)
{
    std::string json = readFile(std::string(CPX_TEST_DATA_DIR) +
                                "/attrib_sweep.json");
    bench::JsonValue doc;
    std::string error;
    ASSERT_TRUE(bench::parseJson(json, doc, error)) << error;

    std::string report;
    ASSERT_TRUE(bench::generateReport(doc, bench::ReportOptions{},
                                      report, error))
        << error;
    EXPECT_EQ(report, readFile(std::string(CPX_TEST_DATA_DIR) +
                               "/attrib_sweep_report.md"));
}

TEST(AttribReport, AttribSweepValidatesAsResultsFile)
{
    std::string error;
    EXPECT_TRUE(bench::validateResultsFile(
        std::string(CPX_TEST_DATA_DIR) + "/attrib_sweep.json", error))
        << error;
}

} // anonymous namespace
} // namespace cpx
