/**
 * @file
 * Tests for the probe stream (src/obs/probe.hh): milestones reach the
 * installed probes in install order; the checker, the flight recorder
 * and the attribution sink installed together each see exactly what
 * they see alone; only the checker forces one worker; sinks built for
 * another machine size are refused; and a reference run's per-kind
 * record counts and attribution report match the committed golden
 * tests/data/probe_parity.txt, so a dropped or duplicated milestone
 * fails.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "check/checker.hh"
#include "core/config.hh"
#include "core/report.hh"
#include "obs/attrib.hh"
#include "obs/trace.hh"
#include "workloads/workload.hh"

namespace cpx
{
namespace
{

// ---------------------------------------------------------------------------
// Install order
// ---------------------------------------------------------------------------

/** Appends its name to a shared log on every prefetch issue. */
struct NamedProbe : Probe
{
    NamedProbe(std::string n, std::string &l) : name(std::move(n)), log(l)
    {}
    void onPrefetchIssue(NodeId, Addr) override { log += name; }
    std::string name;
    std::string &log;
};

TEST(ProbeStream, DeliversInInstallOrderAndRemoves)
{
    MachineParams params = makeParams(ProtocolConfig::basic());
    params.numProcs = 2;
    System sys(params);
    std::string log;
    NamedProbe a("a", log), b("b", log);
    sys.installProbe(&b);
    sys.installProbe(&a);
    CPX_PROBE(sys, onPrefetchIssue, 0, 0x40);
    EXPECT_EQ(log, "ba");
    sys.removeProbe(&b);
    CPX_PROBE(sys, onPrefetchIssue, 0, 0x40);
    EXPECT_EQ(log, "baa");
    sys.removeProbe(&a);
    EXPECT_EQ(sys.probes(), nullptr);
}

// ---------------------------------------------------------------------------
// All consumers at once
// ---------------------------------------------------------------------------

/** What every consumer saw of one seeded chaos stress run. */
struct Observed
{
    bool verified = false;
    unsigned workers = 0;
    std::string stats;
    std::vector<std::vector<TraceRecord>> rings;
    std::uint64_t recorded = 0;
    std::string attribution;
    std::uint64_t checks = 0;
    std::uint64_t messages = 0;
};

Observed
stressRun(bool check, bool trace, bool attrib, unsigned sim_threads = 1)
{
    MachineParams params = makeParams(ProtocolConfig::pcwm());
    params.numProcs = 8;
    params.chaos.enabled = true;
    params.chaos.seed = 7;
    System sys(params, sim_threads);
    TraceSink tracer(params.numProcs, 1u << 14);
    AttribSink attrib_sink(params.numProcs);
    std::unique_ptr<CoherenceChecker> checker;
    if (check)
        checker = std::make_unique<CoherenceChecker>(sys);
    if (trace)
        sys.setTracer(&tracer);
    if (attrib)
        sys.setAttrib(&attrib_sink);

    auto w = makeWorkload("stress", 0.2, /*seed=*/7);
    WorkloadRun run = runWorkload(sys, *w, /*limit=*/500'000'000);

    Observed o;
    o.verified = run.verified;
    o.workers = sys.kernelTelemetry().simThreads;
    o.stats = formatSystemStats(sys);
    for (NodeId n = 0; n < tracer.numNodes(); ++n)
        o.rings.push_back(tracer.ring(n).snapshot());
    o.recorded = tracer.recorded();
    const AttributionResult &ar = run.stats.attribution;
    o.attribution = formatAttribution(ar) +
                    std::to_string(ar.unmatchedLocks) + " " +
                    std::to_string(ar.fanoutImprecise);
    if (checker) {
        checker->checkQuiescent();
        EXPECT_EQ(checker->violationCount(), 0u);
        o.checks = checker->checksRun();
        o.messages = checker->messagesObserved();
    }
    return o;
}

void
expectSameRings(const Observed &a, const Observed &b)
{
    auto fields = [](const TraceRecord &r) {
        return std::tie(r.tick, r.addr, r.arg, r.kind, r.node, r.aux);
    };
    EXPECT_EQ(a.recorded, b.recorded);
    ASSERT_EQ(a.rings.size(), b.rings.size());
    for (std::size_t n = 0; n < a.rings.size(); ++n) {
        ASSERT_EQ(a.rings[n].size(), b.rings[n].size()) << "node " << n;
        for (std::size_t i = 0; i < a.rings[n].size(); ++i)
            ASSERT_TRUE(fields(a.rings[n][i]) == fields(b.rings[n][i]))
                << "node " << n << " record " << i;
    }
}

TEST(ProbeConsumers, AllThreeTogetherSeeWhatEachSeesAlone)
{
    Observed all = stressRun(true, true, true);
    Observed bare = stressRun(false, false, false);
    Observed traced = stressRun(false, true, false);
    Observed attributed = stressRun(false, false, true);
    Observed checked = stressRun(true, false, false);

    ASSERT_TRUE(all.verified);
    ASSERT_TRUE(bare.verified);
    EXPECT_EQ(all.stats, bare.stats);

    EXPECT_GT(traced.recorded, 0u);
    expectSameRings(all, traced);

    EXPECT_NE(attributed.attribution, bare.attribution);
    EXPECT_EQ(all.attribution, attributed.attribution);

    EXPECT_GT(checked.checks, 0u);
    EXPECT_EQ(all.checks, checked.checks);
    EXPECT_EQ(all.messages, checked.messages);
}

TEST(ProbeConsumers, TracerAndAttributionAreSlabSafe)
{
    Observed w1 = stressRun(false, true, true, 1);
    Observed w4 = stressRun(false, true, true, 4);
    ASSERT_TRUE(w4.verified);
    // Only a sequential-only probe (the checker) forces one worker.
    EXPECT_EQ(w4.workers, 4u);
    EXPECT_EQ(w1.stats, w4.stats);
    expectSameRings(w1, w4);
    EXPECT_EQ(w1.attribution, w4.attribution);

    Observed checked = stressRun(true, false, false, 4);
    EXPECT_EQ(checked.workers, 1u);
}

// ---------------------------------------------------------------------------
// Sinks must match the machine they observe
// ---------------------------------------------------------------------------

TEST(ProbeDeathTest, SinkBuiltForAnotherMachineIsRefused)
{
    MachineParams params = makeParams(ProtocolConfig::basic());
    params.numProcs = 8;
    EXPECT_EXIT(
        {
            System sys(params);
            TraceSink sink(4);
            sys.setTracer(&sink);
        },
        ::testing::ExitedWithCode(1), "trace sink built for 4 nodes");
    EXPECT_EXIT(
        {
            System sys(params);
            AttribSink sink(16);
            sys.setAttrib(&sink);
        },
        ::testing::ExitedWithCode(1),
        "attribution sink built for 16 nodes");
}

// ---------------------------------------------------------------------------
// Parity with the golden
// ---------------------------------------------------------------------------

/** Per-kind flight-recorder counts, then the attribution report, of
 *  mp3d under P+CW+M at 8 processors, scale 0.1. */
std::string
parityText()
{
    MachineParams params = makeParams(ProtocolConfig::pcwm());
    params.numProcs = 8;
    System sys(params);
    TraceSink tracer(params.numProcs, 1u << 16);
    AttribSink attrib(params.numProcs);
    sys.setTracer(&tracer);
    sys.setAttrib(&attrib);
    auto w = makeWorkload("mp3d", 0.1);
    WorkloadRun run = runWorkload(sys, *w);
    EXPECT_TRUE(run.verified);
    EXPECT_EQ(tracer.overwritten(), 0u);

    const unsigned kinds = static_cast<unsigned>(TraceKind::LockRelease) + 1;
    std::vector<std::uint64_t> counts(kinds, 0);
    for (NodeId n = 0; n < tracer.numNodes(); ++n)
        for (const TraceRecord &r : tracer.ring(n).snapshot())
            ++counts[static_cast<unsigned>(r.kind)];
    std::string out = "# mp3d P+CW+M, 8 procs, scale 0.1: flight-recorder "
                      "records per kind, then the attribution report\n";
    for (unsigned k = 0; k < kinds; ++k)
        out += std::string(traceKindName(static_cast<TraceKind>(k))) +
               " " + std::to_string(counts[k]) + "\n";
    return out + formatAttribution(run.stats.attribution);
}

TEST(ProbeParity, ReproducesTheGolden)
{
    std::ifstream in(std::string(CPX_TEST_DATA_DIR) + "/probe_parity.txt");
    ASSERT_TRUE(in) << "missing tests/data/probe_parity.txt";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(parityText(), golden.str());
}

} // anonymous namespace
} // namespace cpx
