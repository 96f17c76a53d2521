#include "core/report.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace cpx
{

RunResult
collectStats(System &sys, Tick exec_time)
{
    const MachineParams &p = sys.params();
    RunResult r;
    r.protocol = p.protocol.name();
    r.consistency =
        p.consistency == Consistency::ReleaseConsistency ? "RC" : "SC";
    r.execTime = exec_time;

    double n = p.numProcs;
    for (NodeId i = 0; i < p.numProcs; ++i) {
        const Processor &proc = sys.processor(i);
        const auto &t = proc.times();
        r.busy += t.busy / n;
        r.readStall += t.readStall / n;
        r.writeStall += t.writeStall / n;
        r.acquireStall += t.acquireStall / n;
        r.releaseStall += t.releaseStall / n;
        r.sharedAccesses += proc.sharedAccesses();

        const SlcController &slc = sys.node(i).slc;
        r.coldReadMisses += slc.readMisses(MissKind::Cold);
        r.cohReadMisses += slc.readMisses(MissKind::Coherence);
        r.replReadMisses += slc.readMisses(MissKind::Replacement);
        r.writeMissesTotal += slc.writeMisses(MissKind::Cold) +
                              slc.writeMisses(MissKind::Coherence) +
                              slc.writeMisses(MissKind::Replacement);
        r.prefetchesIssued += slc.prefetchEngine().issued();
        r.prefetchesUseful += slc.prefetchEngine().useful();
        r.softwarePrefetches += slc.softwarePrefetches();
        r.combinedWrites +=
            slc.writeCacheUnit().combinedWrites().value();
        r.counterInvalidations += slc.counterInvalidations();

        const DirectoryController &dir = sys.node(i).dir;
        r.ownershipRequests += dir.ownershipRequests();
        r.invalidationsSent += dir.invalidationsSent();
        r.updatesForwarded += dir.updatesForwarded();
        r.migratoryDetections += dir.migratoryDetections();
        r.dirOverflowBroadcasts += dir.overflowBroadcasts();
        r.dirPointerEvictions += dir.pointerEvictions();
    }

    // Weighted mean of per-node read-miss latencies.
    double lat_sum = 0;
    std::uint64_t lat_count = 0;
    for (NodeId i = 0; i < p.numProcs; ++i) {
        const Accumulator &acc = sys.node(i).slc.readMissLatency();
        lat_sum += acc.sum();
        lat_count += acc.count();
    }
    r.avgReadMissLatency = lat_count ? lat_sum / lat_count : 0.0;

    // Latency distributions: per-node histograms share one geometry,
    // so they merge bucket-by-bucket.
    for (NodeId i = 0; i < p.numProcs; ++i) {
        const SlcController &slc = sys.node(i).slc;
        r.readMissLatency.merge(slc.readMissLatencyHist());
        r.ownershipLatency.merge(slc.ownershipLatencyHist());
        r.prefetchFillLatency.merge(slc.prefetchFillLatencyHist());
    }

    r.eventsExecuted = sys.totalEventsExecuted();
    r.peakPendingEvents = sys.totalPeakPending();
    r.scheduleAllocs = sys.totalScheduleAllocs();
    r.slabRounds = sys.kernelTelemetry().slabRounds;
    r.crossMessages = sys.kernelTelemetry().crossMessages;
    r.lookahead = sys.kernelTelemetry().lookahead;
    r.simThreads = sys.kernelTelemetry().simThreads;

    r.netBytes = sys.net().totalBytes();
    r.netMessages = sys.net().totalMessages();
    for (unsigned k = 0; k < static_cast<unsigned>(
                                 MsgClass::NumClasses);
         ++k) {
        r.classBytes[k] = sys.net().bytesOf(static_cast<MsgClass>(k));
    }
    return r;
}

std::string
formatSystemStats(System &sys)
{
    const MachineParams &p = sys.params();
    std::string out;
    // append() grows the string to fit, so no line is cut off at a
    // fixed buffer size.
    auto emit = [&](const char *fmt, auto... args) {
        append(out, fmt, args...);
    };
    auto ull = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };

    emit("system.protocol %s\n", p.protocol.name().c_str());
    emit("system.consistency %s\n",
         p.consistency == Consistency::ReleaseConsistency ? "RC"
                                                          : "SC");
    emit("system.numProcs %u\n", p.numProcs);
    // Deliberately no simThreads line: this dump must be identical
    // at every worker count (the determinism tests compare it).
    emit("system.eventsExecuted %llu\n",
         ull(sys.totalEventsExecuted()));
    emit("system.peakPendingEvents %llu\n",
         ull(sys.totalPeakPending()));
    emit("system.scheduleAllocs %llu\n",
         ull(sys.totalScheduleAllocs()));
    emit("network.bytes %llu\n", ull(sys.net().totalBytes()));
    emit("network.messages %llu\n", ull(sys.net().totalMessages()));
    const char *class_names[] = {"request", "data", "coherence",
                                 "update", "sync"};
    for (unsigned k = 0;
         k < static_cast<unsigned>(MsgClass::NumClasses); ++k) {
        emit("network.bytes.%s %llu\n", class_names[k],
             ull(sys.net().bytesOf(static_cast<MsgClass>(k))));
    }

    for (NodeId n = 0; n < p.numProcs; ++n) {
        const Node &node = sys.node(n);
        const auto &t = node.proc.times();
        emit("proc%u.busy %llu\n", n, ull(t.busy));
        emit("proc%u.readStall %llu\n", n, ull(t.readStall));
        emit("proc%u.writeStall %llu\n", n, ull(t.writeStall));
        emit("proc%u.acquireStall %llu\n", n, ull(t.acquireStall));
        emit("proc%u.releaseStall %llu\n", n, ull(t.releaseStall));
        emit("proc%u.sharedReads %llu\n", n,
             ull(node.proc.sharedReads()));
        emit("proc%u.sharedWrites %llu\n", n,
             ull(node.proc.sharedWrites()));
        emit("proc%u.lockAcquires %llu\n", n,
             ull(node.proc.lockAcquires()));

        emit("node%u.flc.readHits %llu\n", n,
             ull(node.flc.readHitCount().value()));
        emit("node%u.flc.readMisses %llu\n", n,
             ull(node.flc.readMissCount().value()));
        emit("node%u.flc.writeHits %llu\n", n,
             ull(node.flc.writeHitCount().value()));
        emit("node%u.flc.writeMisses %llu\n", n,
             ull(node.flc.writeMissCount().value()));

        const SlcController &slc = node.slc;
        emit("node%u.slc.readMissCold %llu\n", n,
             ull(slc.readMisses(MissKind::Cold)));
        emit("node%u.slc.readMissCoherence %llu\n", n,
             ull(slc.readMisses(MissKind::Coherence)));
        emit("node%u.slc.readMissReplacement %llu\n", n,
             ull(slc.readMisses(MissKind::Replacement)));
        emit("node%u.slc.readHits %llu\n", n, ull(slc.readHits()));
        emit("node%u.slc.counterInvalidations %llu\n", n,
             ull(slc.counterInvalidations()));
        emit("node%u.slc.updatesReceived %llu\n", n,
             ull(slc.updatesReceived()));
        emit("node%u.slc.avgReadMissLatency %.1f\n", n,
             slc.readMissLatency().mean());
        auto hist = [&](const char *what, const Histogram &h) {
            const Accumulator &s = h.summary();
            emit("node%u.latency.%s count=%llu mean=%.1f min=%.0f "
                 "max=%.0f p50=%.1f p90=%.1f p99=%.1f overflow=%llu\n",
                 n, what, ull(s.count()), s.mean(), s.min(), s.max(),
                 h.percentile(0.50), h.percentile(0.90),
                 h.percentile(0.99), ull(h.overflowCount()));
        };
        hist("readMiss", slc.readMissLatencyHist());
        hist("ownership", slc.ownershipLatencyHist());
        hist("prefetchFill", slc.prefetchFillLatencyHist());
        emit("node%u.prefetch.issued %llu\n", n,
             ull(slc.prefetchEngine().issued()));
        emit("node%u.prefetch.useful %llu\n", n,
             ull(slc.prefetchEngine().useful()));

        emit("node%u.writeCache.combinedWrites %llu\n", n,
             ull(slc.writeCacheUnit().combinedWrites().value()));
        emit("node%u.writeCache.victimFlushes %llu\n", n,
             ull(slc.writeCacheUnit().victimFlushes().value()));

        const DirectoryController &dir = node.dir;
        emit("node%u.dir.readRequests %llu\n", n,
             ull(dir.readRequests()));
        emit("node%u.dir.ownershipRequests %llu\n", n,
             ull(dir.ownershipRequests()));
        emit("node%u.dir.invalidationsSent %llu\n", n,
             ull(dir.invalidationsSent()));
        emit("node%u.dir.fetchesSent %llu\n", n,
             ull(dir.fetchesSent()));
        emit("node%u.dir.updatesForwarded %llu\n", n,
             ull(dir.updatesForwarded()));
        emit("node%u.dir.migratoryDetections %llu\n", n,
             ull(dir.migratoryDetections()));
        emit("node%u.dir.migratoryDemotions %llu\n", n,
             ull(dir.migratoryDemotions()));
        emit("node%u.dir.writeBacks %llu\n", n, ull(dir.writeBacks()));
        emit("node%u.dir.overflowBroadcasts %llu\n", n,
             ull(dir.overflowBroadcasts()));
        emit("node%u.dir.pointerEvictions %llu\n", n,
             ull(dir.pointerEvictions()));
        emit("node%u.locks.acquires %llu\n", n,
             ull(node.locks.acquires()));
        emit("node%u.locks.queued %llu\n", n,
             ull(node.locks.queuedAcquires()));
        emit("node%u.bus.busyTicks %llu\n", n,
             ull(node.bus.totalBusy()));
        emit("node%u.bus.waitTicks %llu\n", n,
             ull(node.bus.totalWait()));
    }
    return out;
}

void
printRelativeExecutionTimes(const std::string &title,
                            const std::vector<RunResult> &results,
                            const RunResult &baseline)
{
    std::printf("\n%s\n", title.c_str());
    std::printf("%-10s %8s | %6s %6s %6s %6s %6s | %8s\n", "protocol",
                "rel.time", "busy", "read", "write", "acq", "rel",
                "ticks");
    double base = static_cast<double>(baseline.execTime);
    for (const RunResult &r : results) {
        double scale = base > 0 ? 100.0 / base : 0.0;
        std::printf(
            "%-10s %8.1f | %6.1f %6.1f %6.1f %6.1f %6.1f | %8llu\n",
            r.protocol.c_str(), r.execTime * scale, r.busy * scale,
            r.readStall * scale, r.writeStall * scale,
            r.acquireStall * scale, r.releaseStall * scale,
            static_cast<unsigned long long>(r.execTime));
    }
}

void
printRelativeTraffic(const std::string &title,
                     const std::vector<RunResult> &results,
                     const RunResult &baseline)
{
    std::printf("\n%s\n", title.c_str());
    std::printf("%-10s %12s %10s\n", "protocol", "bytes", "rel.traffic");
    double base = static_cast<double>(baseline.netBytes);
    for (const RunResult &r : results) {
        std::printf("%-10s %12llu %9.1f%%\n", r.protocol.c_str(),
                    static_cast<unsigned long long>(r.netBytes),
                    base > 0 ? 100.0 * r.netBytes / base : 0.0);
    }
}

} // namespace cpx
