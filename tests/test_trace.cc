/**
 * @file
 * Tests for the trace-replay workload and its parser, plus the FFT
 * extension workload.
 */

#include <gtest/gtest.h>

#include "core/config.hh"
#include "workloads/trace.hh"
#include "workloads/workload.hh"

namespace cpx
{
namespace
{

TEST(TraceParser, ParsesEveryEventKind)
{
    auto events = parseTrace("# a comment\n"
                             "0 r 10\n"
                             "1 w 20 99\n"
                             "0 c 50\n"
                             "1 l 2\n"
                             "1 u 2\n"
                             "0 b\n"
                             "\n");
    ASSERT_EQ(events.size(), 6u);
    EXPECT_EQ(events[0].first, 0u);
    EXPECT_EQ(events[0].second.kind, TraceEvent::Kind::Read);
    EXPECT_EQ(events[0].second.addr, 0x10u);
    EXPECT_EQ(events[1].second.kind, TraceEvent::Kind::Write);
    EXPECT_EQ(events[1].second.addr, 0x20u);
    EXPECT_EQ(events[1].second.value, 99u);
    EXPECT_EQ(events[2].second.cycles, 50u);
    EXPECT_EQ(events[3].second.lockIndex, 2u);
    EXPECT_EQ(events[5].second.kind, TraceEvent::Kind::Barrier);
}

TEST(TraceParserDeath, RejectsMalformedLines)
{
    EXPECT_EXIT((void)parseTrace("0 r\n"),
                ::testing::ExitedWithCode(1), "address");
    EXPECT_EXIT((void)parseTrace("0 x 10\n"),
                ::testing::ExitedWithCode(1), "unknown operation");
    EXPECT_EXIT((void)parseTrace("zebra r 10\n"),
                ::testing::ExitedWithCode(1), "processor id");
}

TEST(TraceReplay, SingleWriterValuesLand)
{
    MachineParams params = makeParams(ProtocolConfig::basic());
    params.numProcs = 4;
    System sys(params);
    TraceWorkload trace("0 w 0 11\n"
                        "1 w 40 22\n"
                        "0 c 100\n"
                        "0 w 0 33\n"
                        "0 b\n1 b\n2 b\n3 b\n",
                        256);
    WorkloadRun run = runWorkload(sys, trace);
    EXPECT_TRUE(run.verified);
    EXPECT_EQ(sys.store().read32(trace.regionBase() + 0x00), 33u);
    EXPECT_EQ(sys.store().read32(trace.regionBase() + 0x40), 22u);
}

TEST(TraceReplay, LockProtectedSharingAcrossProtocols)
{
    // Two processors ping-ponging a counter under a lock, expressed
    // as a trace. The final value must be exact in every protocol.
    std::string text;
    for (int i = 0; i < 10; ++i) {
        // The replay engine preserves per-processor program order;
        // the lock serializes the read-modify-write... but a trace
        // cannot express data-dependent values, so each processor
        // writes a distinct word and the single-writer check
        // verifies delivery.
        text += "0 l 0\n0 w 0 " + std::to_string(i) + "\n0 u 0\n";
        text += "1 l 0\n1 w 40 " + std::to_string(100 + i) +
                "\n1 u 0\n";
    }
    text += "0 b\n1 b\n2 b\n3 b\n4 b\n5 b\n6 b\n7 b\n";
    for (const ProtocolConfig &proto :
         {ProtocolConfig::basic(), ProtocolConfig::pcw(),
          ProtocolConfig::pcwm()}) {
        MachineParams params = makeParams(proto);
        params.numProcs = 8;
        System sys(params);
        TraceWorkload trace(text, 256);
        WorkloadRun run = runWorkload(sys, trace);
        EXPECT_TRUE(run.verified) << proto.name();
        EXPECT_TRUE(sys.quiescent()) << proto.name();
    }
}

TEST(TraceReplay, ExampleTraceReplaysThroughMakeWorkload)
{
    MachineParams params = makeParams(ProtocolConfig::pcwm());
    params.numProcs = 4;
    System sys(params);
    auto w = makeWorkload(std::string("trace:") + CPX_EXAMPLE_TRACE);
    WorkloadRun run = runWorkload(sys, *w);
    EXPECT_TRUE(run.verified);
    EXPECT_TRUE(sys.quiescent());
    // The region is sized from the highest address (0x11c): the
    // table's last word must have landed inside it.
    auto &trace = static_cast<TraceWorkload &>(*w);
    EXPECT_EQ(sys.store().read32(trace.regionBase() + 0x11c), 17u);
}

TEST(TraceReplayDeath, RejectsUnreadableTraceFile)
{
    EXPECT_EXIT((void)makeWorkload("trace:no/such/file.trace"),
                ::testing::ExitedWithCode(1), "cannot read trace");
}

TEST(TraceReplayDeath, RejectsOutOfRegionAccess)
{
    EXPECT_EXIT(TraceWorkload("0 r 1000\n", 256),
                ::testing::ExitedWithCode(1), "beyond");
}

class FftAllProtocols
    : public ::testing::TestWithParam<ProtocolConfig>
{
};

TEST_P(FftAllProtocols, TransformsCorrectly)
{
    MachineParams params = makeParams(GetParam());
    params.numProcs = 8;
    System sys(params);
    auto w = makeWorkload("fft", 0.5);  // 256 points
    WorkloadRun run = runWorkload(sys, *w);
    EXPECT_TRUE(run.verified) << GetParam().name();
    EXPECT_TRUE(sys.quiescent());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, FftAllProtocols,
    ::testing::Values(ProtocolConfig::basic(), ProtocolConfig::p(),
                      ProtocolConfig::pcw(), ProtocolConfig::pm(),
                      ProtocolConfig::pcwm()),
    [](const ::testing::TestParamInfo<ProtocolConfig> &info) {
        std::string n = info.param.name();
        for (char &c : n)
            if (c == '+')
                c = '_';
        return n;
    });

TEST(Fft, StridedPhasesThrottleThePrefetcher)
{
    // FFT's large-stride butterflies defeat sequential prefetching;
    // the adaptive controller must not stay at a high degree with a
    // low useful fraction. Sanity: useful/issued under FFT is worse
    // than under the sequential-scan-dominated LU.
    auto usefulness = [](const char *app) {
        MachineParams params = makeParams(ProtocolConfig::p());
        params.numProcs = 8;
        System sys(params);
        auto w = makeWorkload(app, 0.5);
        WorkloadRun run = runWorkload(sys, *w);
        EXPECT_TRUE(run.verified);
        return run.stats.prefetchesIssued
                   ? static_cast<double>(run.stats.prefetchesUseful) /
                         run.stats.prefetchesIssued
                   : 0.0;
    };
    EXPECT_LT(usefulness("fft"), usefulness("lu"));
}

} // anonymous namespace
} // namespace cpx
