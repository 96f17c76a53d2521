/**
 * @file
 * Wakeup elision is exact (DESIGN.md §8.1): a processor that sleeps
 * into an idle stretch of its own slab advances its node's clock in
 * place instead of dispatching a wake event, and nothing the machine
 * computes may change.
 *
 * tests/data/wake_elision.txt was written by a build without elision.
 * For each configuration it holds the FNV-1a of the formatSystemStats
 * dump, minus the three event-queue lines that elision legitimately
 * moves; the FNV-1a of the flight recorder's rings, which stamp every
 * protocol milestone with its node's clock; and that build's
 * eventsExecuted. Each configuration must reproduce both fingerprints
 * at one and at four worker threads, and the events dispatched plus
 * the wakeups elided must add up to the old dispatch count: every
 * elided wakeup replaces exactly one event. The ring fingerprint is
 * what catches an elision after a resume that is not a tail resume:
 * the stats survive it, but milestones the resuming callback emits
 * afterwards get stamped late.
 *
 * The configurations cover barrier spinning (ocean, RC and SC), lock
 * traffic (water under SC, mp3d), a seeded chaos stress run, the
 * short-lookahead mesh and a 64-node limited-pointer directory.
 *
 * Registered with the ctest label "threads" so the ThreadSanitizer CI
 * lane runs the four-thread case.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/report.hh"
#include "obs/trace.hh"
#include "workloads/workload.hh"

namespace cpx
{
namespace
{

struct ElisionCase
{
    std::string name;
    MachineParams params;
    std::string app;
    double scale;
    std::uint64_t seed;
};

std::vector<ElisionCase>
elisionCases()
{
    using C = Consistency;
    auto sized = [](MachineParams p, unsigned procs) {
        p.numProcs = procs;
        return p;
    };
    MachineParams chaos = sized(makeParams(ProtocolConfig::pcwm()), 16);
    chaos.chaos.enabled = true;
    chaos.chaos.seed = 7;
    DirectoryParams limptr4B;
    limptr4B.rep = DirRep::LimitedPtr;
    limptr4B.pointers = 4;
    limptr4B.overflow = DirOverflowPolicy::Broadcast;
    return {
        {"ocean-rc", sized(makeParams(ProtocolConfig::pcw()), 16),
         "ocean", 0.2, 1},
        {"ocean-sc",
         sized(makeParams(ProtocolConfig::pm(), C::SequentialConsistency),
               16),
         "ocean", 0.2, 1},
        {"water",
         sized(makeParams(ProtocolConfig::basic(),
                          C::SequentialConsistency),
               16),
         "water", 0.5, 1},
        {"mp3d", sized(makeParams(ProtocolConfig::pcw()), 16), "mp3d",
         0.5, 1},
        {"stress-chaos", chaos, "stress", 0.2, 7},
        {"mesh16",
         sized(makeParams(ProtocolConfig::pcw(), C::ReleaseConsistency,
                          NetworkKind::Mesh, 16),
               16),
         "mp3d", 0.2, 1},
        {"limptr4B-64",
         makeScaledParams(ProtocolConfig::pm(), C::SequentialConsistency,
                          64, limptr4B),
         "mp3d", 0.1, 1},
    };
}

void
fnv(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i, v >>= 8) {
        h ^= v & 0xff;
        h *= 1099511628211ull;
    }
}

/** FNV-1a of the stats dump without its three event-queue lines. */
std::uint64_t
statsFingerprint(System &sys)
{
    std::istringstream in(formatSystemStats(sys));
    std::uint64_t h = 1469598103934665603ull;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("system.eventsExecuted", 0) == 0 ||
            line.rfind("system.peakPendingEvents", 0) == 0 ||
            line.rfind("system.scheduleAllocs", 0) == 0)
            continue;
        for (char c : line + "\n") {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** FNV-1a of every node's ring: records pushed, then each resident
 *  record field by field, oldest first. */
std::uint64_t
traceFingerprint(const TraceSink &tracer)
{
    std::uint64_t h = 1469598103934665603ull;
    for (NodeId n = 0; n < tracer.numNodes(); ++n) {
        fnv(h, tracer.ring(n).total());
        for (const TraceRecord &r : tracer.ring(n).snapshot()) {
            fnv(h, r.tick);
            fnv(h, r.addr);
            fnv(h, r.arg);
            fnv(h, static_cast<std::uint64_t>(r.kind));
            fnv(h, r.node);
            fnv(h, r.aux);
        }
    }
    return h;
}

struct Golden
{
    std::uint64_t stats = 0;
    std::uint64_t trace = 0;
    std::uint64_t events = 0;
};

std::map<std::string, Golden>
loadGolden()
{
    std::map<std::string, Golden> golden;
    std::ifstream in(std::string(CPX_TEST_DATA_DIR) + "/wake_elision.txt");
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream f(line);
        std::string name, stats, trace;
        Golden g;
        f >> name >> stats >> trace >> g.events;
        g.stats = std::stoull(stats, nullptr, 16);
        g.trace = std::stoull(trace, nullptr, 16);
        golden[name] = g;
    }
    return golden;
}

void
reproduceGolden(unsigned sim_threads)
{
    const std::map<std::string, Golden> golden = loadGolden();
    ASSERT_FALSE(golden.empty()) << "missing tests/data/wake_elision.txt";
    for (const ElisionCase &c : elisionCases()) {
        SCOPED_TRACE(c.name);
        auto it = golden.find(c.name);
        ASSERT_NE(it, golden.end());
        System sys(c.params, sim_threads);
        TraceSink tracer(c.params.numProcs);
        sys.setTracer(&tracer);
        auto w = makeWorkload(c.app, c.scale, c.seed);
        WorkloadRun run = runWorkload(sys, *w);
        EXPECT_TRUE(run.verified);
        EXPECT_EQ(statsFingerprint(sys), it->second.stats);
        EXPECT_EQ(traceFingerprint(tracer), it->second.trace);
        EXPECT_EQ(sys.totalEventsExecuted() + sys.totalWakeupsElided(),
                  it->second.events);
        if (c.params.networkKind == NetworkKind::Uniform) {
            EXPECT_GT(sys.totalWakeupsElided(), 0u);
        }
    }
}

TEST(WakeElision, ReproducesTheGoldenSequentially)
{
    reproduceGolden(1);
}

TEST(WakeElision, ReproducesTheGoldenAtFourThreads)
{
    reproduceGolden(4);
}

} // anonymous namespace
} // namespace cpx
