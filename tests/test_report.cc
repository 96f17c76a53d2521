/**
 * @file
 * Tests for statistics collection, report formatting, the stats
 * dump, and the logging switchboard.
 */

#include <gtest/gtest.h>

#include "core/config.hh"
#include "core/report.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace cpx
{
namespace
{

WorkloadRun
smallRun(System &sys)
{
    auto w = makeWorkload("migratory", 0.2);
    return runWorkload(sys, *w);
}

TEST(Report, CollectStatsAggregatesPerProcessorTimes)
{
    MachineParams params = makeParams(ProtocolConfig::basic());
    params.numProcs = 4;
    System sys(params);
    WorkloadRun run = smallRun(sys);

    const RunResult &r = run.stats;
    EXPECT_EQ(r.protocol, "BASIC");
    EXPECT_EQ(r.consistency, "RC");
    EXPECT_GT(r.sharedAccesses, 0u);
    EXPECT_GT(r.busy, 0.0);

    // The average breakdown must equal the mean of the processors'.
    double busy_sum = 0;
    for (NodeId i = 0; i < params.numProcs; ++i)
        busy_sum += static_cast<double>(sys.processor(i).times().busy);
    EXPECT_NEAR(r.busy, busy_sum / params.numProcs, 1.0);
}

TEST(Report, MissRatesAreConsistentWithCounts)
{
    MachineParams params = makeParams(ProtocolConfig::basic());
    params.numProcs = 4;
    System sys(params);
    WorkloadRun run = smallRun(sys);
    const RunResult &r = run.stats;
    EXPECT_NEAR(r.coldMissRate(),
                100.0 * r.coldReadMisses / r.sharedAccesses, 1e-9);
    EXPECT_NEAR(r.cohMissRate(),
                100.0 * r.cohReadMisses / r.sharedAccesses, 1e-9);
}

TEST(Report, StatsDumpContainsEveryComponent)
{
    MachineParams params = makeParams(ProtocolConfig::pcwm());
    params.numProcs = 2;
    System sys(params);
    smallRun(sys);

    std::string dump = formatSystemStats(sys);
    for (const char *key :
         {"system.protocol P+CW+M", "system.numProcs 2",
          "network.bytes", "network.bytes.sync", "proc0.busy",
          "proc1.readStall", "node0.flc.readHits",
          "node1.slc.readMissCold", "node0.writeCache.combinedWrites",
          "node1.dir.ownershipRequests", "node0.locks.acquires",
          "node1.bus.busyTicks", "node0.prefetch.issued"}) {
        EXPECT_NE(dump.find(key), std::string::npos)
            << "missing '" << key << "'";
    }
}

TEST(Report, PrintersDoNotCrash)
{
    MachineParams params = makeParams(ProtocolConfig::basic());
    params.numProcs = 2;
    System sys(params);
    WorkloadRun run = smallRun(sys);
    std::vector<RunResult> results{run.stats, run.stats};
    printRelativeExecutionTimes("test", results, results[0]);
    printRelativeTraffic("test", results, results[0]);
}

TEST(Logging, TagSwitchboard)
{
    Logger::disableAll();
    EXPECT_FALSE(Logger::enabled("SLC"));
    Logger::enable("SLC");
    EXPECT_TRUE(Logger::enabled("SLC"));
    EXPECT_FALSE(Logger::enabled("Dir"));
    Logger::enableAll();
    EXPECT_TRUE(Logger::enabled("Dir"));
    Logger::disableAll();
    EXPECT_FALSE(Logger::enabled("SLC"));
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 42), "boom 42");
}

TEST(LoggingDeath, FatalExitsCleanly)
{
    EXPECT_EXIT(fatal("config error %s", "xyz"),
                ::testing::ExitedWithCode(1), "config error xyz");
}

} // anonymous namespace
} // namespace cpx
