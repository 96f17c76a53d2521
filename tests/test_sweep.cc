/**
 * @file
 * Tests for the parallel sweep runner (bench/runner.hh) and the
 * multi-system fixes that make it safe: concurrent Systems on
 * separate host threads must produce bit-identical statistics to the
 * same configurations run serially, the shared checked-parse helpers
 * must reject malformed numbers, the JSON results document must
 * round-trip through the bundled parser, and the baseline gate must
 * fail on every simulated-stat drift and on nothing else.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "bench/runner.hh"
#include "sim/event_queue.hh"
#include "sim/parse.hh"

namespace cpx
{
namespace
{

using ::testing::ExitedWithCode;
using namespace cpx::bench;

// Small but non-trivial configurations: different protocols,
// consistency models and networks, so the two concurrent systems
// exercise genuinely different code paths.
struct TestConfig
{
    const char *app;
    MachineParams params;
};

std::vector<TestConfig>
testConfigs()
{
    return {
        {"migratory", makeParams(ProtocolConfig::pcwm())},
        {"producer_consumer",
         makeParams(ProtocolConfig::pm(),
                    Consistency::SequentialConsistency)},
        {"false_sharing",
         makeParams(ProtocolConfig::cw(),
                    Consistency::ReleaseConsistency,
                    NetworkKind::Mesh, 32)},
    };
}

RunResult
runConfig(const TestConfig &c)
{
    MachineParams params = c.params;
    params.numProcs = 4;
    System sys(params);
    auto w = makeWorkload(c.app, 0.2);
    return runWorkload(sys, *w).stats;
}

void
expectBitIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.busy, b.busy);
    EXPECT_EQ(a.readStall, b.readStall);
    EXPECT_EQ(a.writeStall, b.writeStall);
    EXPECT_EQ(a.acquireStall, b.acquireStall);
    EXPECT_EQ(a.releaseStall, b.releaseStall);
    EXPECT_EQ(a.sharedAccesses, b.sharedAccesses);
    EXPECT_EQ(a.coldReadMisses, b.coldReadMisses);
    EXPECT_EQ(a.cohReadMisses, b.cohReadMisses);
    EXPECT_EQ(a.replReadMisses, b.replReadMisses);
    EXPECT_EQ(a.writeMissesTotal, b.writeMissesTotal);
    EXPECT_EQ(a.netBytes, b.netBytes);
    EXPECT_EQ(a.netMessages, b.netMessages);
    EXPECT_EQ(a.invalidationsSent, b.invalidationsSent);
    EXPECT_EQ(a.updatesForwarded, b.updatesForwarded);
    EXPECT_EQ(a.migratoryDetections, b.migratoryDetections);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.combinedWrites, b.combinedWrites);
    EXPECT_EQ(a.avgReadMissLatency, b.avgReadMissLatency);
}

TEST(SweepDeterminism, ConcurrentSystemsMatchSerial)
{
    auto configs = testConfigs();

    // Serial reference, one System at a time on this thread.
    std::vector<RunResult> serial;
    for (const TestConfig &c : configs)
        serial.push_back(runConfig(c));

    // All configurations at once, each on its own host thread.
    std::vector<RunResult> parallel(configs.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        threads.emplace_back([&configs, &parallel, i]() {
            parallel[i] = runConfig(configs[i]);
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(configs[i].app);
        expectBitIdentical(serial[i], parallel[i]);
    }
}

TEST(SweepDeterminism, RunnerMatchesSerialAcrossJobCounts)
{
    auto runSweep = [](unsigned jobs) {
        Options opts;
        opts.scale = 0.2;
        opts.procs = 4;
        opts.jobs = jobs;
        SweepRunner runner(opts);
        for (const TestConfig &c : testConfigs())
            runner.add(c.app, c.params, "determinism");
        runner.runAll();
        return runner.results();
    };

    auto one = runSweep(1);
    auto four = runSweep(4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        SCOPED_TRACE(one[i].point.app);
        EXPECT_EQ(one[i].run.execTime, four[i].run.execTime);
        EXPECT_TRUE(one[i].run.verified);
        EXPECT_TRUE(four[i].run.verified);
        expectBitIdentical(one[i].run.stats, four[i].run.stats);
    }
}

TEST(TickSource, ClearedWhenQueueDies)
{
    // A destroyed EventQueue must deregister itself: a trace after
    // its death stamps tick 0 instead of dereferencing freed memory.
    {
        EventQueue queue;
        queue.schedule(1234, []() {});
        queue.run();
    }
    Logger::enable("SweepTest");
    testing::internal::CaptureStderr();
    CPX_TRACE("SweepTest", "after queue death");
    std::string log = testing::internal::GetCapturedStderr();
    Logger::disableAll();
    EXPECT_NE(log.find("         0: "), std::string::npos) << log;
}

TEST(TickSource, NewerQueueOnSameThreadWins)
{
    // Destroying an older queue must not clobber the tick source of
    // a newer queue on the same thread.
    auto old_queue = std::make_unique<EventQueue>();
    EventQueue active;
    active.schedule(777, []() {});
    active.run();
    old_queue.reset();

    Logger::enable("SweepTest");
    testing::internal::CaptureStderr();
    CPX_TRACE("SweepTest", "stamped by the newer queue");
    std::string log = testing::internal::GetCapturedStderr();
    Logger::disableAll();
    EXPECT_NE(log.find("       777: "), std::string::npos) << log;
}

TEST(CheckedParseDeathTest, RejectsMalformedNumbers)
{
    EXPECT_EXIT((void)parseUnsigned("abc", "--procs"),
                ExitedWithCode(1), "--procs: malformed number");
    EXPECT_EXIT((void)parseUnsigned("", "--procs"), ExitedWithCode(1),
                "--procs: empty value");
    EXPECT_EXIT((void)parseUnsigned("12x", "--procs"),
                ExitedWithCode(1), "--procs: malformed number");
    EXPECT_EXIT((void)parseU64("-3", "--seed"), ExitedWithCode(1),
                "--seed: negative value");
    EXPECT_EXIT((void)parseDouble("1.5x", "--scale"),
                ExitedWithCode(1), "--scale: malformed number");
    EXPECT_EXIT((void)parsePositiveDouble("0", "--scale"),
                ExitedWithCode(1), "--scale: must be positive");
    EXPECT_EXIT((void)parsePositiveUnsigned("0", "--procs"),
                ExitedWithCode(1), "--procs: must be positive");
    EXPECT_EXIT((void)parseUnsigned("99999999999", "--procs"),
                ExitedWithCode(1), "--procs: value .* out of range");
}

TEST(CheckedParseDeathTest, BenchOptionsRejectBadValues)
{
    auto parse = [](std::vector<const char *> args) {
        args.insert(args.begin(), "bench");
        bench::parseOptions(static_cast<int>(args.size()),
                            const_cast<char **>(args.data()));
    };
    EXPECT_EXIT(parse({"--procs=0"}), ExitedWithCode(1),
                "--procs: must be positive");
    EXPECT_EXIT(parse({"--procs=abc"}), ExitedWithCode(1),
                "--procs: malformed number");
    EXPECT_EXIT(parse({"--scale=-1"}), ExitedWithCode(1),
                "--scale: must be positive");
    EXPECT_EXIT(parse({"--jobs=0"}), ExitedWithCode(1),
                "--jobs: must be positive");
    EXPECT_EXIT(parse({"--sample-interval=abc"}), ExitedWithCode(1),
                "--sample-interval: malformed number");
    EXPECT_EXIT(parse({"--sample-interval=-5"}), ExitedWithCode(1),
                "--sample-interval: negative value");
    EXPECT_EXIT(parse({"--bogus"}), ExitedWithCode(1),
                "unknown option");
}

TEST(CheckedParse, AcceptsWellFormedNumbers)
{
    EXPECT_EQ(parseUnsigned("16", "--procs"), 16u);
    EXPECT_EQ(parseU64("0x10", "--seed"), 16u);
    EXPECT_EQ(parseU64("5000", "--sample-interval"), 5000u);
    EXPECT_DOUBLE_EQ(parseDouble("0.25", "--scale"), 0.25);
    EXPECT_EQ(parsePositiveUnsigned("4", "--jobs"), 4u);
}

TEST(SweepJson, RoundTripsThroughParser)
{
    Options opts;
    opts.scale = 0.2;
    opts.procs = 4;
    opts.jobs = 2;
    SweepRunner runner(opts);
    std::size_t h0 =
        runner.add("migratory", makeParams(ProtocolConfig::pcw()),
                   "json/migratory");
    std::size_t h1 = runner.add(
        "producer_consumer", makeParams(ProtocolConfig::basic()),
        "json/producer");
    runner.runAll();

    std::string path = testing::TempDir() + "cpx_sweep_test.json";
    writeJson(path, "test_sweep", opts, runner.results(),
              runner.totalHostSeconds());

    std::ifstream file(path);
    ASSERT_TRUE(file.good());
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(text, doc, error)) << error;
    EXPECT_EQ(doc.at("schema").text, "cpx-sweep-1");
    EXPECT_EQ(doc.at("suite").text, "test_sweep");

    const auto &points = doc.at("points").items;
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].at("app").text, "migratory");
    EXPECT_EQ(points[0].at("tag").text, "json/migratory");
    EXPECT_EQ(points[0].at("config").at("protocol").text, "P+CW");
    EXPECT_TRUE(points[0].at("verified").boolean);
    EXPECT_EQ(points[0].at("execTime").number,
              static_cast<double>(runner[h0].run.execTime));
    EXPECT_EQ(points[1].at("app").text, "producer_consumer");
    EXPECT_EQ(points[1].at("execTime").number,
              static_cast<double>(runner[h1].run.execTime));
    EXPECT_EQ(points[1].at("traffic").at("bytes").number,
              static_cast<double>(runner[h1].run.stats.netBytes));

    // The validation entry point used by CI agrees.
    EXPECT_TRUE(validateResultsFile(path, error)) << error;
    std::remove(path.c_str());
}

TEST(SweepJson, ValidationCatchesBadDocuments)
{
    std::string error;

    EXPECT_FALSE(validateResultsFile("/nonexistent/path.json",
                                     error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);

    auto writeFile = [](const std::string &path,
                        const std::string &content) {
        std::ofstream out(path, std::ios::trunc);
        out << content;
    };
    std::string path = testing::TempDir() + "cpx_sweep_bad.json";

    writeFile(path, "{ not json");
    EXPECT_FALSE(validateResultsFile(path, error));

    writeFile(path, "{\"schema\": \"something-else\"}");
    EXPECT_FALSE(validateResultsFile(path, error));
    EXPECT_NE(error.find("schema"), std::string::npos);

    writeFile(path,
              "{\"schema\": \"cpx-sweep-1\", \"points\": ["
              "{\"app\": \"mp3d\", \"config\": {}, \"execTime\": 1, "
              "\"verified\": false}]}");
    EXPECT_FALSE(validateResultsFile(path, error));
    EXPECT_NE(error.find("unverified"), std::string::npos);
    std::remove(path.c_str());
}

// @p text with its first @p from replaced by @p to.
std::string
subst(std::string text, const std::string &from, const std::string &to)
{
    std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text : text.replace(at, from.size(), to);
}

// A cpxbench-shaped document of @p n points for the baseline gate: the
// gated blocks plus the host time and kernel counts it must ignore.
// @p from is replaced by @p to in every point, or in point @p only.
std::string
gateDoc(std::size_t n, const std::string &from = "",
        const std::string &to = "", std::size_t only = std::string::npos)
{
    std::string doc = R"({"schema": "cpx-sweep-1", "jobs": 2, )"
                      R"("timestamp": "2026-01-01T00:00:00Z", )"
                      R"("hostSeconds": 1.5, "points": [)";
    for (std::size_t i = 0; i < n; ++i) {
        std::string point =
            R"({"tag": "fig2", "app": "mp3d", "configHash": "h)" +
            std::to_string(i) +
            R"(", "verified": true, "hostSeconds": 0.5, "directory": )"
            R"({"overflowBroadcasts": 0, "pointerEvictions": 0}, )"
            R"("execTime": 3000, "exact": {"ownershipRequests": 7, )"
            R"("latencySum": {"readMiss": 40}}, "kernel": )"
            R"({"eventsExecuted": 900, "slabRounds": 40}})";
        if (!from.empty() && (only == std::string::npos || only == i))
            point = subst(point, from, to);
        doc += (i ? ", " : "") + point;
    }
    return doc + "]}";
}

// compareToBaseline over two documents written to temporary files,
// named after the running test because ctest runs tests in parallel.
bool
gate(const std::string &cur, const std::string &base, std::string &error)
{
    const std::string stem =
        testing::TempDir() + "cpx_gate_" +
        testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::string cur_path = stem + "_cur.json";
    const std::string base_path = stem + "_base.json";
    std::ofstream(cur_path, std::ios::trunc) << cur;
    std::ofstream(base_path, std::ios::trunc) << base;
    error.clear();
    const bool ok = compareToBaseline(cur_path, base_path, error);
    std::remove(cur_path.c_str());
    std::remove(base_path.c_str());
    return ok;
}

// The gate once warned on a >20% throughput regression; now host time
// never affects it, whether 10x better or 10x worse. Host performance
// is perfbench's to measure.
TEST(SweepJson, BaselineWarningTracksSimulatedPclocksPerSecond)
{
    for (auto [point, doc] : {std::pair{"0.05", "0.15"}, {"5", "15"}}) {
        std::string cur = gateDoc(3, R"("hostSeconds": 0.5)",
                                  R"("hostSeconds": )" + std::string(point));
        cur = subst(cur, R"("hostSeconds": 1.5)",
                    R"("hostSeconds": )" + std::string(doc));
        std::string error;
        EXPECT_TRUE(gate(cur, gateDoc(3), error)) << error;
        EXPECT_EQ(error, "");
    }
}

TEST(SweepJson, BaselineGateIgnoresTimestampJobsAndKernelCounts)
{
    std::string cur = gateDoc(3, R"("eventsExecuted": 900, "slabRounds": 40)",
                              R"("eventsExecuted": 300, "slabRounds": 45)");
    cur = subst(cur, "2026-01-01T00:00:00Z", "2027-06-30T12:00:00Z");
    cur = subst(cur, R"("jobs": 2)", R"("jobs": 16)");
    std::string error;
    EXPECT_TRUE(gate(cur, gateDoc(3), error)) << error;
}

TEST(SweepJson, BaselineGateFailsOnPointCountMismatch)
{
    std::string error;
    EXPECT_FALSE(gate(gateDoc(2), gateDoc(3), error));
    EXPECT_NE(error.find("2 points vs 3 in baseline"), std::string::npos)
        << error;
}

TEST(SweepJson, BaselineGateNamesTheDriftedPointAndItsHash)
{
    std::string error;
    const std::string cur =
        gateDoc(3, R"("execTime": 3000)", R"("execTime": 3001)", 1);
    EXPECT_FALSE(gate(cur, gateDoc(3), error));
    EXPECT_NE(error.find("1 point(s) drifted"), std::string::npos) << error;
    EXPECT_NE(error.find("point 1 (fig2/mp3d, hash=h1) drifted in "
                         "'execTime'"),
              std::string::npos)
        << error;
}

TEST(SweepJson, BaselineGateCoversDirectoryAndExactBlocks)
{
    const char *const drifts[][3] = {
        {R"("overflowBroadcasts": 0)", R"("overflowBroadcasts": 1)",
         "directory"},
        {R"("pointerEvictions": 0)", R"("pointerEvictions": 4)", "directory"},
        {R"("ownershipRequests": 7)", R"("ownershipRequests": 8)", "exact"},
        {R"("readMiss": 40)", R"("readMiss": 41)", "exact"},
        {R"("exact")", R"("exactBlockMissing")", "exact"},
    };
    for (const auto &[from, to, block] : drifts) {
        std::string error;
        EXPECT_FALSE(gate(gateDoc(2, from, to, 0), gateDoc(2), error)) << to;
        EXPECT_NE(error.find("hash=h0) drifted in '" + std::string(block)),
                  std::string::npos)
            << error;
    }
}

TEST(SweepJson, BaselineGateListsFortyDriftsThenCountsTheRest)
{
    std::string error;
    EXPECT_FALSE(gate(gateDoc(45, R"("execTime": 3000)", R"("execTime": 6000)"),
                      gateDoc(45), error));
    EXPECT_NE(error.find("45 point(s) drifted"), std::string::npos) << error;
    EXPECT_NE(error.find("hash=h39)"), std::string::npos) << error;
    EXPECT_EQ(error.find("hash=h40)"), std::string::npos) << error;
    EXPECT_NE(error.find("… and 5 more"), std::string::npos) << error;
}

TEST(SweepJson, ParserHandlesEscapesAndNesting)
{
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(
        R"({"a": [1, -2.5e3, "x\"\\\nA"], "b": {"c": null, "d": true}})",
        doc, error))
        << error;
    EXPECT_EQ(doc.at("a").items.size(), 3u);
    EXPECT_EQ(doc.at("a").items[1].number, -2500.0);
    EXPECT_EQ(doc.at("a").items[2].text, "x\"\\\nA");
    EXPECT_EQ(doc.at("b").at("c").kind, JsonValue::Kind::Null);
    EXPECT_TRUE(doc.at("b").at("d").boolean);

    EXPECT_FALSE(parseJson("{\"a\": 1} trailing", doc, error));
    EXPECT_FALSE(parseJson("[1, 2", doc, error));
    EXPECT_FALSE(parseJson("", doc, error));
}

TEST(SweepRunnerDeathTest, ReportsFullConfigurationOnFailure)
{
    // The stress workload's verify() fails when the run is truncated;
    // instead, check the message format directly: it must name app,
    // protocol, consistency, network and seed so the point can be
    // reproduced from the error alone.
    SweepPoint point{"mp3d",
                     makeParams(ProtocolConfig::pcw(),
                                Consistency::ReleaseConsistency,
                                NetworkKind::Mesh, 32),
                     "tag", 0.5, 42};
    point.params.numProcs = 8;
    std::string text = describePoint(point);
    EXPECT_NE(text.find("mp3d"), std::string::npos);
    EXPECT_NE(text.find("P+CW"), std::string::npos);
    EXPECT_NE(text.find("RC"), std::string::npos);
    EXPECT_NE(text.find("mesh32"), std::string::npos);
    EXPECT_NE(text.find("8 procs"), std::string::npos);
    EXPECT_NE(text.find("seed 42"), std::string::npos);
    EXPECT_NE(text.find("scale 0.50"), std::string::npos);
}

} // anonymous namespace
} // namespace cpx
