/**
 * @file
 * Tests for the stress-and-diagnostics subsystem (src/check):
 * the coherence invariant checker (including proof that it catches
 * deliberately injected violations), the stall watchdog and the
 * System::run diagnostics dump (on deliberately wedged runs), and
 * the chaos network decorator.
 */

#include <gtest/gtest.h>

#include "check/checker.hh"
#include "check/watchdog.hh"
#include "core/config.hh"
#include "net/chaos_network.hh"
#include "proto/slc.hh"
#include "workloads/workload.hh"

namespace cpx
{
namespace
{

MachineParams
smallParams(unsigned procs = 4)
{
    MachineParams params = makeParams(ProtocolConfig::basic());
    params.numProcs = procs;
    return params;
}

// ---------------------------------------------------------------------------
// CoherenceChecker: clean runs stay clean
// ---------------------------------------------------------------------------

TEST(CoherenceChecker, CleanRunHasNoViolations)
{
    System sys(smallParams());
    CoherenceChecker checker(sys);

    auto w = makeWorkload("migratory", 0.1);
    WorkloadRun run = runWorkload(sys, *w);

    EXPECT_TRUE(run.verified);
    checker.checkQuiescent();
    EXPECT_EQ(checker.violationCount(), 0u);
    EXPECT_TRUE(checker.violations().empty());
    EXPECT_GT(checker.checksRun(), 0u);
    EXPECT_GT(checker.messagesObserved(), 0u);
}

TEST(CoherenceChecker, ObserverUninstallsOnDestruction)
{
    System sys(smallParams());
    {
        CoherenceChecker checker(sys);
        ASSERT_NE(sys.probes(), nullptr);
        EXPECT_EQ(sys.probes()->installed(),
                  std::vector<Probe *>{&checker});
    }
    EXPECT_EQ(sys.probes(), nullptr);
}

// ---------------------------------------------------------------------------
// CoherenceChecker: injected violations are caught
// ---------------------------------------------------------------------------

/** Find a stable CLEAN block with a valid copy at some node. */
bool
findCleanCopy(System &sys, Addr &block_out, NodeId &node_out)
{
    for (NodeId home = 0; home < sys.params().numProcs; ++home) {
        for (Addr block : sys.dir(home).knownBlocks()) {
            auto snap = sys.dir(home).inspect(block);
            if (snap.modified || snap.inService)
                continue;
            for (NodeId n = 0; n < sys.params().numProcs; ++n) {
                const auto *line = sys.slc(n).findLine(block);
                if (line && line->valid) {
                    block_out = block;
                    node_out = n;
                    return true;
                }
            }
        }
    }
    return false;
}

TEST(CoherenceChecker, CatchesInjectedSwmrViolation)
{
    System sys(smallParams());
    auto w = makeWorkload("producer_consumer", 0.1);
    WorkloadRun run = runWorkload(sys, *w);
    ASSERT_TRUE(run.verified);

    Addr block = 0;
    NodeId node = 0;
    ASSERT_TRUE(findCleanCopy(sys, block, node));

    // Fault injection: promote a SHARED copy to Dirty behind the
    // directory's back — a second writer the directory knows nothing
    // about, the canonical single-writer/multiple-reader violation.
    sys.slc(node).findLineMutable(block)->state =
        SlcController::LineState::Dirty;

    CoherenceChecker::Options opts;
    opts.failFast = false;
    CoherenceChecker checker(sys, opts);
    checker.checkAll();

    ASSERT_GT(checker.violationCount(), 0u);
    bool found = false;
    for (const std::string &v : checker.violations())
        if (v.find("Dirty") != std::string::npos)
            found = true;
    EXPECT_TRUE(found) << checker.violations()[0];
}

TEST(CoherenceChecker, CatchesInjectedDataCorruption)
{
    System sys(smallParams());
    auto w = makeWorkload("producer_consumer", 0.1);
    WorkloadRun run = runWorkload(sys, *w);
    ASSERT_TRUE(run.verified);

    Addr block = 0;
    NodeId node = 0;
    ASSERT_TRUE(findCleanCopy(sys, block, node));

    // Flip one word of a clean cached copy: the copy now disagrees
    // with the backing store.
    auto *line = sys.slc(node).findLineMutable(block);
    ASSERT_FALSE(line->data.empty());
    line->data[0] ^= 0xdeadbeef;

    CoherenceChecker::Options opts;
    opts.failFast = false;
    CoherenceChecker checker(sys, opts);
    checker.checkAll();

    ASSERT_GT(checker.violationCount(), 0u);
    EXPECT_NE(checker.violations()[0].find("memory has"),
              std::string::npos)
        << checker.violations()[0];
}

TEST(CoherenceChecker, CatchesModifiedOwnerInSharedState)
{
    // Single processor: after a write, the block is MODIFIED with
    // the owner's line Dirty. Demoting the line to Shared while the
    // directory still says MODIFIED breaks directory/cache agreement.
    System sys(smallParams(1));
    Addr word = sys.heap().allocBlockAligned(wordBytes);
    sys.run([&](Processor &p, unsigned) { p.write32(word, 77); });

    Addr block = sys.amap().blockAddr(word);
    auto snap = sys.dir(sys.amap().home(block)).inspect(block);
    ASSERT_TRUE(snap.modified);
    auto *line = sys.slc(snap.owner).findLineMutable(block);
    ASSERT_NE(line, nullptr);
    line->state = SlcController::LineState::Shared;

    CoherenceChecker::Options opts;
    opts.failFast = false;
    CoherenceChecker checker(sys, opts);
    checker.checkAll();

    ASSERT_GT(checker.violationCount(), 0u);
    EXPECT_NE(checker.violations()[0].find("Shared state"),
              std::string::npos)
        << checker.violations()[0];
}

TEST(CoherenceChecker, ViolationListIsCapped)
{
    System sys(smallParams());
    auto w = makeWorkload("readonly", 0.1);
    (void)runWorkload(sys, *w);

    // Corrupt every cached copy everywhere.
    for (NodeId home = 0; home < sys.params().numProcs; ++home)
        for (Addr block : sys.dir(home).knownBlocks())
            for (NodeId n = 0; n < sys.params().numProcs; ++n)
                if (auto *l = sys.slc(n).findLineMutable(block))
                    if (l->valid && !l->data.empty())
                        l->data[0] ^= 1;

    CoherenceChecker::Options opts;
    opts.failFast = false;
    opts.maxViolations = 5;
    CoherenceChecker checker(sys, opts);
    checker.checkAll();

    EXPECT_GT(checker.violationCount(), 5u);
    EXPECT_EQ(checker.violations().size(), 5u);
}

// ---------------------------------------------------------------------------
// Watchdog + stall diagnostics on deliberately wedged runs
// ---------------------------------------------------------------------------

/** Wedge recipe: proc 0 takes the lock and finishes without ever
 *  releasing it; proc 1 waits on it forever. */
void
runWedged(System &sys, Addr lock)
{
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
}

TEST(WatchdogDeathTest, AbortsWithDiagnosticsOnStall)
{
    EXPECT_DEATH(
        {
            System sys(smallParams(2));
            Addr lock = sys.heap().allocLock();
            Watchdog::Options opts;
            opts.interval = 10'000;
            Watchdog dog(sys, opts);
            dog.arm();
            runWedged(sys, lock);
        },
        "watchdog: no progress");
}

TEST(WatchdogDeathTest, DumpNamesTheHeldLock)
{
    // The diagnostics dump must identify the protocol-level wait
    // cycle: the held lock with a waiter, and the stalled processor.
    EXPECT_DEATH(
        {
            System sys(smallParams(2));
            Addr lock = sys.heap().allocLock();
            Watchdog::Options opts;
            opts.interval = 10'000;
            Watchdog dog(sys, opts);
            dog.arm();
            runWedged(sys, lock);
        },
        "held by node 0, 1 waiting");
}

TEST(SystemRunDeathTest, DumpsDiagnosticsWhenQueueDrains)
{
    // Without a watchdog the event queue simply drains with proc 1
    // still suspended; System::run prints the same dump and panics.
    EXPECT_DEATH(
        {
            System sys(smallParams(2));
            Addr lock = sys.heap().allocLock();
            runWedged(sys, lock);
        },
        "protocol stall diagnostics");
}

TEST(Watchdog, DoesNotFireOnHealthyRun)
{
    System sys(smallParams());
    Watchdog::Options opts;
    opts.interval = 1'000;
    opts.abortOnStall = false;
    Watchdog dog(sys, opts);
    dog.arm();

    auto w = makeWorkload("migratory", 0.1);
    WorkloadRun run = runWorkload(sys, *w);

    EXPECT_TRUE(run.verified);
    EXPECT_FALSE(dog.fired());
    EXPECT_GT(dog.samples(), 0u);
}

// ---------------------------------------------------------------------------
// ChaosNetwork
// ---------------------------------------------------------------------------

ChaosParams
chaosConfig(std::uint64_t seed, bool fifo)
{
    ChaosParams c;
    c.enabled = true;
    c.seed = seed;
    c.maxJitter = 200;
    c.preservePairFifo = fifo;
    return c;
}

TEST(ChaosNetwork, DeterministicForSameSeed)
{
    EventQueue eq1, eq2;
    ChaosNetwork a(eq1, std::make_unique<UniformNetwork>(eq1),
                   chaosConfig(42, true));
    ChaosNetwork b(eq2, std::make_unique<UniformNetwork>(eq2),
                   chaosConfig(42, true));
    for (unsigned i = 0; i < 500; ++i) {
        NodeId src = i % 7, dst = (i * 3 + 1) % 7;
        EXPECT_EQ(a.route(src, dst, 40, 0), b.route(src, dst, 40, 0));
    }
    EXPECT_EQ(a.jitterInjected(), b.jitterInjected());
}

TEST(ChaosNetwork, DifferentSeedsDiverge)
{
    EventQueue eq1, eq2;
    ChaosNetwork a(eq1, std::make_unique<UniformNetwork>(eq1),
                   chaosConfig(1, true));
    ChaosNetwork b(eq2, std::make_unique<UniformNetwork>(eq2),
                   chaosConfig(2, true));
    bool diverged = false;
    for (unsigned i = 0; i < 100 && !diverged; ++i)
        diverged = a.route(0, 1, 40, 0) != b.route(0, 1, 40, 0);
    EXPECT_TRUE(diverged);
}

TEST(ChaosNetwork, PreservesPairwiseFifoWhenAsked)
{
    EventQueue eq;
    ChaosNetwork net(eq, std::make_unique<UniformNetwork>(eq),
                     chaosConfig(7, true));
    Tick last = 0;
    for (unsigned i = 0; i < 1000; ++i) {
        Tick arrival = net.route(0, 1, 40, 0);
        EXPECT_GE(arrival, last);
        last = arrival;
    }
    // With jitter up to 200 on a 54-tick base latency, clamping must
    // actually have happened — otherwise the test proves nothing.
    EXPECT_GT(net.fifoClamps(), 0u);
    EXPECT_EQ(net.reorderedDeliveries(), 0u);
}

TEST(ChaosNetwork, ReordersAcrossAPairWhenAllowed)
{
    EventQueue eq;
    ChaosNetwork net(eq, std::make_unique<UniformNetwork>(eq),
                     chaosConfig(7, false));
    bool reordered = false;
    Tick last = 0;
    for (unsigned i = 0; i < 1000; ++i) {
        Tick arrival = net.route(0, 1, 40, 0);
        if (arrival < last)
            reordered = true;
        if (arrival > last)
            last = arrival;
    }
    EXPECT_TRUE(reordered);
    EXPECT_GT(net.reorderedDeliveries(), 0u);
    EXPECT_EQ(net.fifoClamps(), 0u);
}

TEST(ChaosNetwork, LocalDeliveryIsNeverPerturbed)
{
    EventQueue eq_plain, eq_chaos;
    UniformNetwork plain(eq_plain);
    ChaosNetwork net(eq_chaos,
                     std::make_unique<UniformNetwork>(eq_chaos),
                     chaosConfig(3, true));
    for (unsigned i = 0; i < 50; ++i)
        EXPECT_EQ(net.route(2, 2, 40, 0), plain.route(2, 2, 40, 0));
}

TEST(ChaosNetwork, SystemWiresDecoratorWhenEnabled)
{
    MachineParams params = smallParams();
    params.chaos.enabled = true;
    params.chaos.seed = 5;
    System sys(params);
    EXPECT_NE(dynamic_cast<ChaosNetwork *>(&sys.net()), nullptr);

    auto w = makeWorkload("migratory", 0.1);
    WorkloadRun run = runWorkload(sys, *w);
    EXPECT_TRUE(run.verified);
    EXPECT_TRUE(sys.quiescent());

    auto &chaos = static_cast<ChaosNetwork &>(sys.net());
    EXPECT_GT(chaos.jitterInjected(), 0u);
}

TEST(ChaosNetwork, MeshStatsStayReachableUnderChaos)
{
    MachineParams params = smallParams();
    params.networkKind = NetworkKind::Mesh;
    params.chaos.enabled = true;
    System sys(params);
    ASSERT_NE(sys.mesh(), nullptr);

    auto w = makeWorkload("migratory", 0.1);
    WorkloadRun run = runWorkload(sys, *w);
    EXPECT_TRUE(run.verified);
}

} // anonymous namespace
} // namespace cpx
