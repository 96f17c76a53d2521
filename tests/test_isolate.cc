/**
 * @file
 * Tests for fault-isolated sweep execution (bench/runner.hh,
 * DESIGN.md §14): the forked-worker supervisor must classify every
 * failure class as a per-point outcome instead of dying, retry
 * transients, journal completed points durably enough to resume
 * without re-executing them, quarantine corrupt journal lines, and —
 * the load-bearing property — produce bit-identical statistics to
 * the in-process thread pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/runner.hh"

namespace cpx
{
namespace
{

using namespace cpx::bench;

Options
isolateOptions()
{
    Options opts;
    opts.scale = 0.2;
    opts.procs = 4;
    opts.jobs = 4;
    opts.isolate = IsolateMode::Process;
    opts.retries = 0;
    opts.timeoutSec = 30.0;  // generous guard against a real hang
    return opts;
}

MachineParams
smallParams()
{
    MachineParams params = makeParams(ProtocolConfig::pcw());
    params.numProcs = 4;
    return params;
}

/**
 * A result's whole point record with the one host-dependent field
 * zeroed: equal records mean bit-identical results, every stat,
 * histogram, series and attribution row included.
 */
std::string
record(SweepResult r)
{
    r.hostSeconds = 0;
    return writePoint(r);
}

TEST(IsolateClassification, FaultWorkersBecomePerPointStatuses)
{
    SweepRunner runner(isolateOptions());
    std::size_t h_crash =
        runner.add("__crash", smallParams(), "crash");
    std::size_t h_exit = runner.add("__exit", smallParams(), "exit");
    std::size_t h_garbage =
        runner.add("__garbage", smallParams(), "garbage");
    std::size_t h_bad =
        runner.add("__unverified", smallParams(), "unverified");
    std::size_t h_ok =
        runner.add("migratory", smallParams(), "healthy");
    runner.runAll();

    EXPECT_EQ(runner[h_crash].status, PointStatus::Signal);
    EXPECT_EQ(runner[h_exit].status, PointStatus::NonzeroExit);
    EXPECT_EQ(runner[h_garbage].status, PointStatus::Garbage);
    EXPECT_EQ(runner[h_bad].status, PointStatus::InvariantFailure);
    EXPECT_TRUE(runner[h_ok].ok());
    EXPECT_TRUE(runner.ok(h_ok));
    EXPECT_FALSE(runner.ok(h_crash));

    // Each failure carries a human-readable reason.
    EXPECT_NE(runner[h_crash].error.find("signal"),
              std::string::npos);
    EXPECT_FALSE(runner[h_exit].error.empty());
    EXPECT_NE(runner[h_garbage].error.find("unparseable"),
              std::string::npos);
    EXPECT_NE(runner[h_bad].error.find("verification"),
              std::string::npos);
    EXPECT_TRUE(runner[h_ok].error.empty());

    EXPECT_TRUE(runner.anyFailed());
    EXPECT_EQ(runner.failedCount(), 4u);
    EXPECT_FALSE(runner.interrupted());
    std::string summary = runner.failureSummary();
    EXPECT_NE(summary.find("signal"), std::string::npos);
    EXPECT_NE(summary.find("exit"), std::string::npos);
}

TEST(IsolateClassification, HangingWorkerTimesOut)
{
    Options opts = isolateOptions();
    opts.timeoutSec = 1.0;
    SweepRunner runner(opts);
    std::size_t h = runner.add("__hang", smallParams(), "hang");
    runner.runAll();

    EXPECT_EQ(runner[h].status, PointStatus::Timeout);
    EXPECT_NE(runner[h].error.find("timed out"), std::string::npos);
    EXPECT_EQ(runner.failedCount(), 1u);
}

TEST(IsolateRetry, FlakyPointSucceedsOnSecondAttempt)
{
    Options opts = isolateOptions();
    opts.retries = 1;
    const std::string marker =
        testing::TempDir() + "cpx_isolate_flaky.marker";
    std::remove(marker.c_str());
    ::setenv("CPX_FLAKY_MARKER", marker.c_str(), 1);

    SweepRunner runner(opts);
    std::size_t h = runner.add("__flaky", smallParams(), "flaky");
    runner.runAll();
    ::unsetenv("CPX_FLAKY_MARKER");
    std::remove(marker.c_str());

    EXPECT_TRUE(runner[h].ok());
    EXPECT_EQ(runner[h].attempts, 2u);
    EXPECT_FALSE(runner.anyFailed());
}

TEST(IsolateRetry, ExhaustedRetriesKeepLastFailure)
{
    // With no marker env the flaky worker fails every attempt; the
    // supervisor must consume the retry budget and then surface the
    // final outcome instead of looping.
    Options opts = isolateOptions();
    opts.retries = 1;
    ::unsetenv("CPX_FLAKY_MARKER");

    SweepRunner runner(opts);
    std::size_t h = runner.add("__flaky", smallParams(), "flaky");
    runner.runAll();

    EXPECT_EQ(runner[h].status, PointStatus::NonzeroExit);
    EXPECT_EQ(runner[h].attempts, 2u);
    EXPECT_TRUE(runner.anyFailed());
}

TEST(IsolateDeterminism, ProcessModeMatchesInProcess)
{
    struct Config
    {
        const char *app;
        MachineParams params;
    };
    const std::vector<Config> configs{
        {"migratory", makeParams(ProtocolConfig::pcwm())},
        {"producer_consumer",
         makeParams(ProtocolConfig::pm(),
                    Consistency::SequentialConsistency)},
        {"false_sharing",
         makeParams(ProtocolConfig::cw(),
                    Consistency::ReleaseConsistency,
                    NetworkKind::Mesh, 32)},
    };

    auto runSweep = [&configs](IsolateMode mode) {
        Options opts = isolateOptions();
        opts.isolate = mode;
        if (mode == IsolateMode::None)
            opts.timeoutSec = 0;  // in-process mode has no deadline
        SweepRunner runner(opts);
        for (const Config &c : configs)
            runner.add(c.app, c.params, "determinism");
        runner.runAll();
        return runner.results();
    };

    auto inproc = runSweep(IsolateMode::None);
    auto forked = runSweep(IsolateMode::Process);
    ASSERT_EQ(inproc.size(), forked.size());
    for (std::size_t i = 0; i < inproc.size(); ++i) {
        SCOPED_TRACE(inproc[i].point.app);
        EXPECT_TRUE(forked[i].ok());
        EXPECT_EQ(record(inproc[i]), record(forked[i]));
    }
}

TEST(IsolateWire, RoundTripPreservesResult)
{
    Options opts = isolateOptions();
    SweepRunner runner(opts);
    std::size_t h =
        runner.add("migratory", smallParams(), "wire");
    runner.runAll();
    ASSERT_TRUE(runner[h].ok());

    std::string line = writePoint(runner[h]);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    SweepResult parsed;
    std::string error;
    ASSERT_TRUE(readPoint(line, parsed, error)) << error;
    EXPECT_EQ(parsed.status, PointStatus::Ok);
    EXPECT_EQ(parsed.configHash, runner[h].configHash);
    EXPECT_TRUE(parsed.run.verified);
    // The machine parameters come from the caller's own queue.
    parsed.point = runner[h].point;
    EXPECT_EQ(writePoint(parsed), line);

    EXPECT_FALSE(readPoint("{\"schema\": \"bogus\"}", parsed, error));
    EXPECT_FALSE(readPoint("not json at all", parsed, error));
    EXPECT_FALSE(readPoint("[1, 2]", parsed, error));
}

TEST(IsolateJournal, ResumeSkipsExactlyTheCompletedSet)
{
    const std::string journal =
        testing::TempDir() + "cpx_isolate_resume.jsonl";
    std::remove(journal.c_str());

    auto addAll = [](SweepRunner &runner) {
        std::vector<std::size_t> handles;
        handles.push_back(runner.add(
            "migratory", makeParams(ProtocolConfig::pcw()), "j"));
        handles.push_back(runner.add(
            "producer_consumer", makeParams(ProtocolConfig::basic()),
            "j"));
        handles.push_back(runner.add(
            "false_sharing", makeParams(ProtocolConfig::cw()), "j"));
        // A crash is journaled like any outcome but never reused: it
        // may be host-transient, so every resume runs it again.
        handles.push_back(runner.add(
            "__crash", makeParams(ProtocolConfig::pcw()), "j/crash"));
        return handles;
    };
    const std::size_t completed = 3;  // the ok points, crash excluded

    Options opts = isolateOptions();
    opts.journalPath = journal;
    SweepRunner first(opts);
    auto handles = addAll(first);
    first.runAll();
    EXPECT_EQ(first.executedCount(), handles.size());
    EXPECT_EQ(first[handles[completed]].status, PointStatus::Signal);
    EXPECT_EQ(loadJournal(journal).entries, completed);

    // Same grid, resuming from the journal: only the crashed point
    // re-executes, and every reused result is bit-identical.
    Options resume = isolateOptions();
    resume.resumePath = journal;
    SweepRunner second(resume);
    auto handles2 = addAll(second);
    second.runAll();
    EXPECT_EQ(second.executedCount(), 1u);
    for (std::size_t i = 0; i < completed; ++i) {
        SCOPED_TRACE(first[handles[i]].point.app);
        EXPECT_EQ(second[handles2[i]].source, ResultSource::Journal);
        EXPECT_TRUE(second[handles2[i]].ok());
        EXPECT_EQ(record(first[handles[i]]), record(second[handles2[i]]));
    }
    EXPECT_EQ(second[handles2[completed]].source, ResultSource::Executed);
    EXPECT_EQ(second[handles2[completed]].status, PointStatus::Signal);

    // A grid with one extra point resumes the three ok points and
    // runs only the crash and the new point.
    Options partial = isolateOptions();
    partial.resumePath = journal;
    SweepRunner third(partial);
    auto handles3 = addAll(third);
    std::size_t h_new = third.add(
        "migratory", makeParams(ProtocolConfig::pm()), "j/new");
    third.runAll();
    EXPECT_EQ(third.executedCount(), 2u);
    EXPECT_TRUE(third[h_new].ok());
    EXPECT_EQ(third[h_new].source, ResultSource::Executed);
    for (std::size_t i = 0; i < completed; ++i)
        EXPECT_EQ(third[handles3[i]].source, ResultSource::Journal);

    std::remove(journal.c_str());
}

TEST(IsolateJournal, CorruptLinesAreQuarantinedNotDropped)
{
    const std::string journal =
        testing::TempDir() + "cpx_isolate_corrupt.jsonl";
    const std::string quarantine = journal + ".quarantine";
    std::remove(journal.c_str());
    std::remove(quarantine.c_str());

    Options opts = isolateOptions();
    opts.journalPath = journal;
    SweepRunner runner(opts);
    std::size_t h =
        runner.add("migratory", smallParams(), "corrupt");
    runner.runAll();
    ASSERT_TRUE(runner[h].ok());

    // Simulate a crash mid-append (truncated line) plus plain
    // corruption; the valid record must survive both.
    {
        std::ofstream out(journal, std::ios::app);
        out << "{\"tag\": \"corrupt\", \"status\":\n";
        out << "** not json **\n";
    }

    JournalLoad load = loadJournal(journal);
    EXPECT_EQ(load.entries, 1u);
    EXPECT_EQ(load.quarantined, 2u);
    EXPECT_EQ(load.byHash.count(runner[h].configHash), 1u);
    EXPECT_EQ(load.quarantineFile, quarantine);

    std::ifstream qf(quarantine);
    ASSERT_TRUE(qf.good());
    std::string text((std::istreambuf_iterator<char>(qf)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("** not json **"), std::string::npos);

    // A missing journal is an empty load, not an error.
    JournalLoad missing = loadJournal(journal + ".nonexistent");
    EXPECT_EQ(missing.entries, 0u);
    EXPECT_EQ(missing.quarantined, 0u);

    std::remove(journal.c_str());
    std::remove(quarantine.c_str());
}

TEST(IsolateJournal, SampledAttributedPointRoundTrips)
{
    // The richest record there is — interval series, attribution
    // rows, every histogram — must survive the journal exactly.
    const std::string journal =
        testing::TempDir() + "cpx_isolate_rich.jsonl";
    std::remove(journal.c_str());

    Options opts = isolateOptions();
    opts.isolate = IsolateMode::None;
    opts.timeoutSec = 0;
    opts.sampleInterval = 2000;
    opts.attrib = true;
    opts.journalPath = journal;
    MachineParams mesh = makeParams(ProtocolConfig::pcwm(),
                                    Consistency::ReleaseConsistency,
                                    NetworkKind::Mesh, 32);
    SweepRunner first(opts);
    std::size_t h = first.add("migratory", mesh, "rich");
    first.runAll();
    const RunResult &s = first[h].run.stats;
    ASSERT_TRUE(first[h].ok());
    ASSERT_FALSE(s.timeseries.empty());
    ASSERT_TRUE(s.attribution.enabled);
    ASSERT_GT(s.readMissLatency.summary().count(), 0u);

    Options resume = opts;
    resume.resumePath = journal;
    SweepRunner second(resume);
    std::size_t h2 = second.add("migratory", mesh, "rich");
    second.runAll();
    EXPECT_EQ(second.executedCount(), 0u);
    EXPECT_EQ(second[h2].source, ResultSource::Journal);
    EXPECT_EQ(writePoint(second[h2]), writePoint(first[h]));
    // Record equality cannot see a field the codec drops on both
    // sides, so check the ones no gated block carries directly.
    const RunResult &r = second[h2].run.stats;
    EXPECT_TRUE(std::equal(std::begin(r.classBytes),
                           std::end(r.classBytes),
                           std::begin(s.classBytes)));
    EXPECT_EQ(r.ownershipRequests, s.ownershipRequests);
    EXPECT_EQ(r.updatesForwarded, s.updatesForwarded);
    EXPECT_EQ(r.counterInvalidations, s.counterInvalidations);
    EXPECT_EQ(r.readMissLatency.summary().sum(),
              s.readMissLatency.summary().sum());
    EXPECT_EQ(formatAttribution(r.attribution),
              formatAttribution(s.attribution));

    std::remove(journal.c_str());
}

TEST(IsolateJournal, RetiredWireRecordIsStaleAndReruns)
{
    // A record in the retired cpx-wire-1 format is never trusted —
    // even one claiming the point's current hash — and never
    // mistaken for corruption: it is counted stale and its point
    // re-runs.
    const std::string journal =
        testing::TempDir() + "cpx_isolate_stale.jsonl";
    const std::string quarantine = journal + ".quarantine";
    std::remove(journal.c_str());
    std::remove(quarantine.c_str());

    Options opts = isolateOptions();
    const std::string hash =
        pointConfigHash({"migratory", smallParams(), "stale",
                         opts.scale, opts.seed},
                        opts.sampleInterval);
    {
        std::ofstream out(journal);
        out << "{\"schema\":\"cpx-wire-1\",\"hash\":\"" << hash
            << "\",\"status\":\"ok\",\"error\":\"\",\"attempts\":1,"
               "\"hostSeconds\":0.5,\"execTime\":1,\"verified\":true,"
               "\"stats\":{}}\n";
    }

    JournalLoad load = loadJournal(journal);
    EXPECT_EQ(load.stale, 1u);
    EXPECT_EQ(load.entries, 0u);
    EXPECT_EQ(load.quarantined, 0u);
    EXPECT_NE(::access(quarantine.c_str(), F_OK), 0);

    Options resume = opts;
    resume.resumePath = journal;
    SweepRunner runner(resume);
    std::size_t h = runner.add("migratory", smallParams(), "stale");
    runner.runAll();
    EXPECT_EQ(runner.executedCount(), 1u);
    EXPECT_EQ(runner[h].source, ResultSource::Executed);
    EXPECT_EQ(runner[h].configHash, hash);
    EXPECT_TRUE(runner[h].ok());
    EXPECT_NE(::access(quarantine.c_str(), F_OK), 0);

    std::remove(journal.c_str());
}

TEST(IsolateJson, AtomicWriteLeavesNoTempFile)
{
    Options opts = isolateOptions();
    SweepRunner runner(opts);
    std::size_t h_ok =
        runner.add("migratory", smallParams(), "json");
    std::size_t h_bad =
        runner.add("__crash", smallParams(), "json/crash");
    runner.runAll();
    ASSERT_TRUE(runner[h_ok].ok());
    ASSERT_FALSE(runner[h_bad].ok());

    std::string path = testing::TempDir() + "cpx_isolate_out.json";
    writeJson(path, "test_isolate", opts, runner.results(),
              runner.totalHostSeconds());
    EXPECT_EQ(::access(path.c_str(), F_OK), 0);
    EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);

    // The document validates only when failed points are allowed,
    // and the failed point carries its status/error block.
    std::string error;
    EXPECT_FALSE(validateResultsFile(path, error));
    EXPECT_NE(error.find("signal"), std::string::npos);
    EXPECT_TRUE(validateResultsFile(path, error, true)) << error;

    JsonValue doc;
    std::ifstream file(path);
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    ASSERT_TRUE(parseJson(text, doc, error)) << error;
    const auto &points = doc.at("points").items;
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].at("status").text, "ok");
    EXPECT_EQ(points[1].at("status").text, "signal");
    EXPECT_FALSE(points[1].at("error").text.empty());
    EXPECT_FALSE(points[1].has("execTime"));

    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace cpx
