/**
 * @file
 * Shared declarations of the cpx host-cost benchmark (README.md in
 * this directory): the point and workload descriptions, the
 * per-layer counter readout, the isolated unit-cost probes and the
 * heap-allocation counter.
 */

#ifndef CPX_PERFBENCH_HH
#define CPX_PERFBENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/report.hh"
#include "core/system.hh"

namespace perfbench
{

/** One simulated machine × application run. */
struct Point
{
    std::string app;
    cpx::ProtocolConfig protocol;
    cpx::Consistency consistency = cpx::Consistency::ReleaseConsistency;
    unsigned nodes = 16;
    std::string dir = "fullmap";
    unsigned meshLinkBits = 0; //!< 0 = uniform network
    std::uint64_t seed = 1;
    bool seeded = false; //!< inputs come from --seed (no fixed reference)

    std::string id() const;
    cpx::MachineParams params() const;
};

/** A named closed batch of points run at one worker count. */
struct WorkloadSpec
{
    std::string name;
    unsigned simThreads = 1;
    bool attrib = false; //!< causal profiler on in untraced passes
    std::vector<Point> points;
};

/**
 * Per-layer counters summed over the points of one pass, read through
 * the simulator's public accessors after each point.
 */
struct LayerCounts
{
    std::uint64_t events = 0;
    std::uint64_t scheduleAllocs = 0;
    std::uint64_t peakPending = 0; //!< max over points
    std::uint64_t slabRounds = 0;
    std::uint64_t crossMessages = 0;
    std::uint64_t execTime = 0;
    double busy = 0, readStall = 0, writeStall = 0, acquireStall = 0;
    std::uint64_t flcAccesses = 0, flcHits = 0;
    std::uint64_t slcReadMisses = 0, cohReadMisses = 0;
    std::uint64_t dirRequests = 0, invalidations = 0;
    std::uint64_t updatesForwarded = 0, dirOverflowBroadcasts = 0;
    std::uint64_t prefetchesIssued = 0, prefetchesUseful = 0;
    std::uint64_t wcInserts = 0, wcCombines = 0;
    std::uint64_t lockAcquires = 0, lockQueued = 0;
    std::uint64_t lockHomeQueueTicks = 0, dirQueueTicks = 0;
    std::uint64_t netMessages = 0, netBytes = 0;
    std::uint64_t meshFlits = 0, meshWaitTicks = 0;

    /** Add one finished point; @p r must come from collectStats. */
    void add(cpx::System &sys, const cpx::RunResult &r);
};

// --- isolated unit costs (probes.cc) -------------------------------------

/** ns per event of EventQueue::schedule + run on self-rescheduling
 *  chains. */
double probeEventQueueNs();

/** ns per Fiber stack switch (half a resume/yield round trip). */
double probeFiberSwitchNs();

/** ns per SlabEngine round over idle node queues at @p workers. */
double probeSlabRoundNs(unsigned nodes, unsigned mesh_link_bits,
                        unsigned workers);

/** ns per MeshNetwork::send on a 16-node mesh, delivery included. */
double probeMeshSendNs();

// --- heap-allocation counter (alloc_count.cc) ----------------------------

/** Start or stop counting operator new calls (off by default). */
void setAllocCounting(bool on);

/** operator new calls counted so far. */
std::uint64_t allocCount();

} // namespace perfbench

#endif // CPX_PERFBENCH_HH
