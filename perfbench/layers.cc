/**
 * @file
 * Point descriptions and the per-layer counter readout. Everything is
 * read from outside through public accessors after a point finishes:
 * the RunResult, the per-node components, MeshNetwork::totalFlits and
 * System::registerMetrics (read once, no sampler armed).
 */

#include "perfbench.hh"

#include <algorithm>

#include "core/config.hh"
#include "obs/metrics.hh"
#include "sim/logging.hh"

namespace perfbench
{

using namespace cpx;

std::string
Point::id() const
{
    std::string net =
        meshLinkBits ? "mesh" + std::to_string(meshLinkBits) : "uniform";
    std::string s = app + "/" + protocol.name() + "/" +
                    (consistency == Consistency::SequentialConsistency
                         ? "SC"
                         : "RC") +
                    "/" + net + "/" + dir + "/n" +
                    std::to_string(nodes);
    if (seeded)
        s += "/seed" + std::to_string(seed);
    return s;
}

MachineParams
Point::params() const
{
    DirectoryParams d;
    if (!d.parseSpec(dir))
        fatal("perfbench: bad directory spec '%s'", dir.c_str());
    return makeScaledParams(
        protocol, consistency, nodes, d,
        meshLinkBits ? NetworkKind::Mesh : NetworkKind::Uniform,
        meshLinkBits ? meshLinkBits : 64);
}

void
LayerCounts::add(System &sys, const RunResult &r)
{
    events += r.eventsExecuted;
    scheduleAllocs += r.scheduleAllocs;
    peakPending = std::max(peakPending, r.peakPendingEvents);
    slabRounds += r.slabRounds;
    crossMessages += r.crossMessages;

    // RunResult's breakdown is the per-processor average; weight it
    // by the point's execution time through the sums.
    execTime += r.execTime;
    busy += r.busy;
    readStall += r.readStall;
    writeStall += r.writeStall;
    acquireStall += r.acquireStall;

    slcReadMisses +=
        r.coldReadMisses + r.cohReadMisses + r.replReadMisses;
    cohReadMisses += r.cohReadMisses;
    invalidations += r.invalidationsSent;
    updatesForwarded += r.updatesForwarded;
    dirOverflowBroadcasts += r.dirOverflowBroadcasts;
    prefetchesIssued += r.prefetchesIssued;
    prefetchesUseful += r.prefetchesUseful;
    netMessages += r.netMessages;
    netBytes += r.netBytes;

    for (NodeId n = 0; n < sys.params().numProcs; ++n) {
        const Node &node = sys.node(n);
        std::uint64_t hits = node.flc.readHitCount().value() +
                             node.flc.writeHitCount().value();
        flcHits += hits;
        flcAccesses += hits + node.flc.readMissCount().value() +
                       node.flc.writeMissCount().value();
        dirRequests += node.dir.readRequests() +
                       node.dir.ownershipRequests();
        wcInserts += node.slc.writeCacheUnit().insertCount().value();
        wcCombines += node.slc.writeCacheUnit().combinedWrites().value();
        lockAcquires += node.locks.acquires();
        lockQueued += node.locks.queuedAcquires();
    }

    if (r.attribution.enabled) {
        lockHomeQueueTicks += r.attribution.locks.homeQueue;
        for (const AttribSegments &c : r.attribution.classes)
            dirQueueTicks += c.dirQueue;
    }

    if (const MeshNetwork *mesh = sys.mesh()) {
        meshFlits += mesh->totalFlits();
        MetricRegistry registry;
        sys.registerMetrics(registry);
        const std::string suffix = ".waitTicks";
        for (std::size_t i = 0; i < registry.size(); ++i) {
            const std::string &name = registry.name(i);
            if (name.size() > suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                meshWaitTicks += registry.value(i);
        }
    }
}

} // namespace perfbench
