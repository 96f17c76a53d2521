/**
 * @file
 * Parallel DES kernel tests (DESIGN.md §15): the simulated statistics
 * must be bit-identical at every --sim-threads value, for every
 * network model and under adversarial (chaos) schedules, and the
 * backing store's slab write overlays must implement exactly the
 * canonical race semantics the determinism argument relies on.
 *
 * The ownership hand-off (a node's deliveries reach its queue through
 * its owner, at the next slab start) is pinned against a golden
 * written by the kernel that scheduled them at the barrier: observers
 * between slabs and a run cut at its tick limit must see the same
 * queue state.
 *
 * The cross-thread comparisons hash the entire formatSystemStats()
 * dump — every per-node counter, histogram bucket, resource and
 * network statistic — so any divergence anywhere in the machine
 * fails the test, not just the headline numbers.
 *
 * Registered with the ctest label "threads" so the ThreadSanitizer
 * CI lane can run exactly this suite: ctest -L threads.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "check/checker.hh"
#include "core/config.hh"
#include "core/report.hh"
#include "mem/backing_store.hh"
#include "workloads/workload.hh"

namespace cpx
{
namespace
{

/** Run one workload and return the full gem5-style stats dump. */
std::string
runDump(MachineParams params, const std::string &app, double scale,
        std::uint64_t seed, unsigned sim_threads)
{
    System sys(params, sim_threads);
    auto w = makeWorkload(app, scale, seed);
    WorkloadRun run = runWorkload(sys, *w, /*limit=*/500'000'000);
    EXPECT_TRUE(run.verified)
        << app << " seed " << seed << " sim_threads " << sim_threads;
    return formatSystemStats(sys);
}

// --- bit-identity across worker counts ---------------------------------

TEST(ParallelKernel, RandomizedSchedulesMatchSequentialReference)
{
    // Slab-boundary tie-break determinism: the stress workload's
    // seeded random access pattern lands events on both sides of
    // slab boundaries differently for every seed; each schedule must
    // still reproduce the sequential reference exactly. W=3 leaves
    // the 8 nodes unevenly partitioned on purpose.
    MachineParams params = makeParams(ProtocolConfig::pcw());
    params.numProcs = 8;
    for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
        std::string reference =
            runDump(params, "stress", 0.25, seed, 1);
        EXPECT_EQ(reference, runDump(params, "stress", 0.25, seed, 3))
            << "seed " << seed;
    }
}

TEST(ParallelKernel, MailboxOrderingUnderChaosNetwork)
{
    // The chaos decorator jitters and reorders deliveries from one
    // RNG whose draw order is part of the simulated semantics. The
    // barrier drains mailboxes in canonical (send tick, source,
    // sequence) order, so the RNG history — and with it every
    // delivery time — must not depend on the worker count.
    MachineParams params = makeParams(ProtocolConfig::pcwm());
    params.numProcs = 8;
    params.chaos.enabled = true;
    params.chaos.maxJitter = 96;
    params.chaos.seed = 3;
    EXPECT_EQ(runDump(params, "migratory", 0.25, 1, 1),
              runDump(params, "migratory", 0.25, 1, 4));
}

TEST(ParallelKernel, MeshSmallLookaheadMatchesSequential)
{
    // The mesh's minimum cross-node latency (= lookahead) is only a
    // few ticks, so slabs are short and nearly every protocol
    // message crosses a barrier — the stress case for mailbox
    // ordering and slab-boundary handling.
    MachineParams params = makeParams(ProtocolConfig::pcw());
    params.numProcs = 16;
    params.networkKind = NetworkKind::Mesh;
    EXPECT_EQ(runDump(params, "false_sharing", 0.25, 1, 1),
              runDump(params, "false_sharing", 0.25, 1, 4));
}

TEST(ParallelKernel, UnevenMostlyIdlePartitionMatchesSequential)
{
    // 64 nodes on a 16-bit mesh: 3-tick slabs in which most nodes have
    // nothing due, so most node-slab advances are skipped, and three
    // workers own 22/21/21 nodes. Skipping must change nothing.
    MachineParams params = makeParams(ProtocolConfig::pcwm());
    params.numProcs = 64;
    params.networkKind = NetworkKind::Mesh;
    params.meshLinkBits = 16;
    std::string dumps[2];
    const unsigned threads[2] = {1, 3};
    for (int i = 0; i < 2; ++i) {
        System sys(params, threads[i]);
        auto w = makeWorkload("stress", 0.05, 7);
        EXPECT_TRUE(runWorkload(sys, *w, 500'000'000).verified);
        const SlabTelemetry &t = sys.kernelTelemetry();
        EXPECT_LT(2 * t.nodeAdvances, t.slabRounds * params.numProcs)
            << "the case no longer leaves most nodes idle";
        dumps[i] = formatSystemStats(sys);
    }
    EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(ParallelKernel, TwoRunIdentityAtFourThreads)
{
    // Same configuration, same thread count, two fresh systems: the
    // parallel kernel must also be deterministic against itself, not
    // just against the sequential reference.
    MachineParams params = makeParams(ProtocolConfig::pcw());
    params.numProcs = 8;
    EXPECT_EQ(runDump(params, "producer_consumer", 0.25, 1, 4),
              runDump(params, "producer_consumer", 0.25, 1, 4));
}

// --- argument validation and clamping ----------------------------------

TEST(ParallelKernel, RejectsZeroAndOversizedSimThreads)
{
    MachineParams params = makeParams(ProtocolConfig::basic());
    EXPECT_EXIT(System sys(params, 0),
                ::testing::ExitedWithCode(1), "sim-threads");
    EXPECT_EXIT(System sys(params, 65),
                ::testing::ExitedWithCode(1), "sim-threads");
}

TEST(ParallelKernel, WorkersClampToNodeCount)
{
    MachineParams params = makeParams(ProtocolConfig::pcw());
    params.numProcs = 4;
    System sys(params, 16);
    auto w = makeWorkload("readonly", 0.25);
    WorkloadRun run = runWorkload(sys, *w, /*limit=*/500'000'000);
    EXPECT_TRUE(run.verified);
    EXPECT_EQ(sys.kernelTelemetry().simThreads, 4u);
}

TEST(ParallelKernel, TelemetryPopulatedAfterRun)
{
    MachineParams params = makeParams(ProtocolConfig::pcw());
    params.numProcs = 8;
    auto telemetryAt = [&params](unsigned sim_threads) {
        System sys(params, sim_threads);
        auto w = makeWorkload("migratory", 0.25);
        WorkloadRun run = runWorkload(sys, *w, /*limit=*/500'000'000);
        EXPECT_TRUE(run.verified);
        return sys.kernelTelemetry();
    };
    const SlabTelemetry t = telemetryAt(2);
    EXPECT_GT(t.slabRounds, 0u);
    EXPECT_GT(t.crossMessages, 0u);
    EXPECT_GT(t.lookahead, 0u);
    EXPECT_EQ(t.simThreads, 2u);
    // Node advances are exact: which nodes have work in a slab
    // depends only on the queues, never on the worker count.
    const SlabTelemetry t1 = telemetryAt(1);
    const SlabTelemetry t4 = telemetryAt(4);
    EXPECT_GT(t1.nodeAdvances, 0u);
    EXPECT_EQ(t1.nodeAdvances, t4.nodeAdvances);
    EXPECT_EQ(t1.nodeAdvances, t.nodeAdvances);
    EXPECT_LE(t1.nodeAdvances, t1.slabRounds * params.numProcs);
}

// --- ownership hand-off -------------------------------------------------

/**
 * tests/data/kernel_handoff.txt, written by the kernel that scheduled
 * cross-node deliveries into their queues at the slab barrier. The
 * owner-computes kernel inserts them only at the next slab start, so
 * these pin what an observer between slabs must still see.
 */
struct HandoffGolden
{
    std::string slices;             //!< the "slice" lines, in order
    Tick limit = 0;
    std::size_t pendingAtLimit = 0;
};

HandoffGolden
loadHandoffGolden()
{
    HandoffGolden g;
    std::ifstream in(std::string(CPX_TEST_DATA_DIR) +
                     "/kernel_handoff.txt");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("slice ", 0) == 0)
            g.slices += line + "\n";
        else if (line.rfind("limit ", 0) == 0)
            std::istringstream(line.substr(6)) >> g.limit >>
                g.pendingAtLimit;
    }
    return g;
}

/** The machine and workload the golden was written on. */
MachineParams
handoffParams()
{
    MachineParams params = makeParams(ProtocolConfig::pcw());
    params.numProcs = 8;
    return params;
}

TEST(ParallelKernel, KernelSlicesSeeParentQueueState)
{
    // A kernel-queue event must find every drained delivery pending
    // in its destination queue, as if the barrier had scheduled it.
    const HandoffGolden golden = loadHandoffGolden();
    ASSERT_FALSE(golden.slices.empty())
        << "missing tests/data/kernel_handoff.txt";
    for (unsigned w : {1u, 2u, 4u}) {
        System sys(handoffParams(), w);
        auto wl = makeWorkload("migratory", 0.25);
        std::ostringstream seen;
        sys.eq().scheduleEvery(997, [&] {
            seen << "slice " << sys.eq().now() << ' '
                 << sys.totalPending() << ' '
                 << sys.totalEventsExecuted() << ' '
                 << sys.totalPeakPending() << '\n';
            return !sys.allProcessorsFinished();
        });
        EXPECT_TRUE(runWorkload(sys, *wl, 500'000'000).verified);
        EXPECT_EQ(seen.str(), golden.slices) << "sim_threads " << w;
    }
}

TEST(ParallelKernel, LimitStopKeepsUndeliveredMessagesPending)
{
    // A run cut short by its tick limit leaves messages in flight;
    // they must be pending in their queues when the stall panic
    // counts them.
    const HandoffGolden golden = loadHandoffGolden();
    ASSERT_GT(golden.limit, 0u) << "missing tests/data/kernel_handoff.txt";
    const std::string expected =
        "; " + std::to_string(golden.pendingAtLimit) + " events pending";
    for (unsigned w : {1u, 4u}) {
        EXPECT_DEATH(
            {
                System sys(handoffParams(), w);
                auto wl = makeWorkload("migratory", 0.25);
                runWorkload(sys, *wl, golden.limit);
            },
            expected)
            << "sim_threads " << w;
    }
}

TEST(ParallelKernel, ObserverForcesSequentialExecution)
{
    // The coherence checker keeps cross-node order-dependent state;
    // the system must silently fall back to one worker rather than
    // race through it.
    MachineParams params = makeParams(ProtocolConfig::pcw());
    params.numProcs = 8;
    System sys(params, 4);
    CoherenceChecker::Options copts;
    copts.failFast = true;
    CoherenceChecker checker(sys, copts);
    auto w = makeWorkload("migratory", 0.25);
    WorkloadRun run = runWorkload(sys, *w, /*limit=*/500'000'000);
    EXPECT_TRUE(run.verified);
    EXPECT_EQ(sys.kernelTelemetry().simThreads, 1u);
    checker.checkQuiescent();
}

// --- slab write overlays (functional memory) ---------------------------

TEST(SlabOverlays, ReadsOwnWritesOthersSeeSlabStartImage)
{
    BackingStore store(256);
    store.write32(0x100, 11);
    store.beginSlabOverlays(2);

    store.enterNode(0);
    store.write32(0x100, 22);
    EXPECT_EQ(store.read32(0x100), 22u); // read-your-own-writes
    store.leaveNode();

    store.enterNode(1);
    EXPECT_EQ(store.read32(0x100), 11u); // frozen slab-start image
    store.leaveNode();

    store.commitSlab();
    EXPECT_EQ(store.read32(0x100), 22u); // committed at the barrier
    store.endSlabOverlays();
}

TEST(SlabOverlays, SameSlabCollisionResolvesToHighestNode)
{
    BackingStore store(256);
    store.beginSlabOverlays(3);
    store.enterNode(2);
    store.write32(0x40, 222);
    store.leaveNode();
    store.enterNode(0);
    store.write32(0x40, 100);
    store.write32(0x44, 101); // no collision: survives regardless
    store.leaveNode();
    store.commitSlab();
    EXPECT_EQ(store.read32(0x40), 222u); // ascending order: node 2 last
    EXPECT_EQ(store.read32(0x44), 101u);
    store.endSlabOverlays();
}

TEST(SlabOverlays, DirtyByteGranularityPreservesNeighbors)
{
    // Committing must copy only the bytes the node wrote, not whole
    // shadow pages — else a stale shadow byte could clobber another
    // node's earlier-slab write to the same page.
    BackingStore store(256);
    store.write32(0x10, 0xAABBCCDD);
    store.beginSlabOverlays(2);
    store.enterNode(0);
    store.writeBytes(0x10, "\x11", 1);
    store.leaveNode();
    store.commitSlab();
    store.endSlabOverlays();
    EXPECT_EQ(store.read32(0x10) & 0xFFu, 0x11u);
    EXPECT_EQ(store.read32(0x10) >> 8, 0xAABBCCu);
}

TEST(SlabOverlays, PersistAcrossSlabsUntilEnd)
{
    BackingStore store(256);
    store.beginSlabOverlays(2);
    // Slab 1: node 0 writes, barrier commits.
    store.enterNode(0);
    store.write32(0x200, 1);
    store.leaveNode();
    store.commitSlab();
    // Slab 2: node 1 sees the committed value and overwrites it;
    // endSlabOverlays commits the straggler.
    store.enterNode(1);
    EXPECT_EQ(store.read32(0x200), 1u);
    store.write32(0x200, 2);
    store.leaveNode();
    store.endSlabOverlays();
    EXPECT_EQ(store.read32(0x200), 2u);
}

} // anonymous namespace
} // namespace cpx
