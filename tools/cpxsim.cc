/**
 * @file
 * cpxsim — the command-line simulator driver.
 *
 * Runs any workload on any machine configuration and prints the run
 * summary, optionally followed by the full gem5-style statistics
 * dump. This is the entry point a downstream user scripts against.
 *
 *   cpxsim --app=mp3d --protocol=P+CW --consistency=rc \
 *          --network=mesh32 --procs=16 --scale=1.0 --stats
 *
 * Options:
 *   --app=NAME          mp3d | cholesky | water | lu | ocean |
 *                       migratory | producer_consumer | readonly |
 *                       false_sharing | stress      (default mp3d)
 *                       | trace:PATH (replay the trace file at PATH,
 *                       format in src/workloads/trace.hh)
 *   --workload=NAME     alias for --app=
 *   --protocol=COMBO    BASIC, P, CW, M, P+CW, P+M, CW+M, P+CW+M
 *   --consistency=MODEL rc | sc                    (default rc)
 *   --network=KIND      uniform | mesh16|mesh32|mesh64 (default uniform)
 *   --procs=N           processors                 (default 16)
 *   --nodes=N           alias for --procs=
 *   --dir=SPEC          directory sharer-set representation
 *                       (DESIGN.md §16): fullmap (default) |
 *                       limptr<N>B (N pointers, overflow broadcast) |
 *                       limptr<N>E (N pointers, pointer eviction) |
 *                       coarse<K>  (K nodes per presence bit)
 *   --scale=F           problem-size multiplier    (default 1.0)
 *   --seed=N            workload random seed       (default 1)
 *   --slc=BYTES         finite SLC size, 0=infinite (default 0)
 *   --threshold=N       competitive threshold      (default 1)
 *   --no-write-cache    plain competitive update [10]
 *   --flwb=N --slwb=N   write buffer entries
 *   --limit=N           abort the run after N simulated ticks
 *   --sim-threads=N     host worker threads for the parallel DES
 *                       kernel (default 1; max 64). Simulated stats
 *                       are bit-identical at every value — see
 *                       DESIGN.md §15. Forced back to 1 when the
 *                       coherence checker (--check) is installed.
 *   --stats             dump all component statistics
 *   --trace=TAGS        comma-separated debug tags (SLC,Dir) to stderr
 *
 * Flight recorder (see DESIGN.md §12):
 *   --trace-out=PATH    record protocol events and write a Chrome
 *                       trace-event JSON file (load in Perfetto)
 *   --trace-buffer=N    per-node ring capacity in records
 *                       (default 4096; oldest records overwritten)
 *
 * Interval metrics (see DESIGN.md §13):
 *   --sample-interval=N sample every registered metric each N ticks
 *                       (0 = off, the default). Not yet neutral:
 *                       the sampler's events cut slabs, which moves
 *                       execTime on most points (DESIGN.md §13,
 *                       ROADMAP item 1). The run
 *                       summary reports the rows collected. Combined
 *                       with --trace-out, the sampled metrics also
 *                       ride in the Chrome trace as Perfetto counter
 *                       tracks on the same timeline.
 *
 * Stall attribution (see DESIGN.md §17):
 *   --attrib            profile every coherence transaction's causal
 *                       critical path and print the attributed
 *                       (class x segment) matrix, lock home-queue
 *                       split, and hot-block/hot-lock tables after
 *                       the run summary. Observation-only: simulated
 *                       stats (and the --stats dump) are
 *                       bit-identical with it on or off.
 *
 * Stress harness (see DESIGN.md "Stress harness"):
 *   --check             run the coherence invariant checker
 *                       (panics on the first violation)
 *   --chaos             inject network latency jitter + reordering
 *   --chaos-jitter=N    max jitter in ticks         (default 64)
 *   --chaos-seed=N      chaos rng seed              (default 1)
 *   --chaos-no-fifo     do not preserve pairwise FIFO (NOTE: the
 *                       directory protocol relies on it; expect
 *                       checker violations — this is for testing
 *                       the checker, not the protocol)
 *   --watchdog[=N]      stall watchdog, sampling every N ticks
 *                       (default 100000); dumps diagnostics and
 *                       aborts when no progress is made
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "check/checker.hh"
#include "check/watchdog.hh"
#include "core/config.hh"
#include "core/report.hh"
#include "obs/attrib.hh"
#include "obs/trace.hh"
#include "sim/parse.hh"
#include "workloads/workload.hh"

namespace
{

using namespace cpx;

ProtocolConfig
parseProtocol(const std::string &name)
{
    for (const ProtocolConfig &proto : figure2Protocols())
        if (proto.name() == name)
            return proto;
    fatal("unknown protocol '%s' (try BASIC, P, CW, M, P+CW, P+M, "
          "CW+M, P+CW+M)",
          name.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace cpx;

    std::string app = "mp3d";
    std::string protocol = "BASIC";
    std::string consistency = "rc";
    std::string network = "uniform";
    double scale = 1.0;
    std::uint64_t seed = 1;
    Tick limit = maxTick;
    bool dump_stats = false;
    bool check = false;
    bool watchdog_enabled = false;
    Tick watchdog_interval = 100'000;
    std::string trace_out;
    std::size_t trace_buffer = TraceSink::defaultRingCapacity;
    Tick sample_interval = 0;
    bool attrib = false;
    unsigned sim_threads = 1;
    MachineParams params;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg](const char *key) -> const char * {
            std::size_t n = std::strlen(key);
            if (arg.compare(0, n, key) == 0)
                return arg.c_str() + n;
            return nullptr;
        };
        if (const char *v = value("--app="))
            app = v;
        else if (const char *v = value("--workload="))
            app = v;
        else if (const char *v = value("--protocol="))
            protocol = v;
        else if (const char *v = value("--consistency="))
            consistency = v;
        else if (const char *v = value("--network="))
            network = v;
        else if (const char *v = value("--procs="))
            params.numProcs = parsePositiveUnsigned(v, "--procs");
        else if (const char *v = value("--nodes="))
            params.numProcs = parsePositiveUnsigned(v, "--nodes");
        else if (const char *v = value("--dir=")) {
            if (!params.directory.parseSpec(v))
                fatal("bad --dir spec '%s' (use fullmap, limptr<N>B, "
                      "limptr<N>E or coarse<K>)",
                      v);
        } else if (const char *v = value("--scale="))
            scale = parsePositiveDouble(v, "--scale");
        else if (const char *v = value("--seed="))
            seed = parseU64(v, "--seed");
        else if (const char *v = value("--slc="))
            params.slcBytes = parseUnsigned(v, "--slc");
        else if (const char *v = value("--threshold="))
            params.competitiveThreshold =
                parsePositiveUnsigned(v, "--threshold");
        else if (arg == "--no-write-cache")
            params.writeCacheEnabled = false;
        else if (const char *v = value("--flwb="))
            params.flwbEntries = parsePositiveUnsigned(v, "--flwb");
        else if (const char *v = value("--slwb="))
            params.slwbEntries = parsePositiveUnsigned(v, "--slwb");
        else if (const char *v = value("--limit="))
            limit = parseU64(v, "--limit");
        else if (const char *v = value("--sim-threads="))
            sim_threads = parsePositiveUnsigned(v, "--sim-threads");
        else if (arg == "--stats")
            dump_stats = true;
        else if (arg == "--check")
            check = true;
        else if (arg == "--chaos")
            params.chaos.enabled = true;
        else if (const char *v = value("--chaos-jitter=")) {
            params.chaos.enabled = true;
            params.chaos.maxJitter = parseU64(v, "--chaos-jitter");
        } else if (const char *v = value("--chaos-seed=")) {
            params.chaos.enabled = true;
            params.chaos.seed = parseU64(v, "--chaos-seed");
        } else if (arg == "--chaos-no-fifo") {
            params.chaos.enabled = true;
            params.chaos.preservePairFifo = false;
        } else if (arg == "--watchdog")
            watchdog_enabled = true;
        else if (const char *v = value("--watchdog=")) {
            watchdog_enabled = true;
            watchdog_interval = parseU64(v, "--watchdog");
        } else if (const char *v = value("--trace-out=")) {
            trace_out = v;
        } else if (const char *v = value("--trace-buffer=")) {
            trace_buffer =
                parsePositiveUnsigned(v, "--trace-buffer");
        } else if (const char *v = value("--sample-interval=")) {
            sample_interval = parseU64(v, "--sample-interval");
        } else if (arg == "--attrib") {
            attrib = true;
        } else if (const char *v = value("--trace=")) {
            std::string tags = v;
            std::size_t pos = 0;
            while (pos != std::string::npos) {
                std::size_t comma = tags.find(',', pos);
                Logger::enable(tags.substr(
                    pos, comma == std::string::npos ? comma
                                                    : comma - pos));
                pos = comma == std::string::npos ? comma : comma + 1;
            }
        } else {
            fatal("unknown option '%s' (see the header of "
                  "tools/cpxsim.cc)",
                  arg.c_str());
        }
    }

    params.protocol = parseProtocol(protocol);
    params.consistency = consistency == "sc"
                             ? Consistency::SequentialConsistency
                             : Consistency::ReleaseConsistency;
    if (network.rfind("mesh", 0) == 0) {
        params.networkKind = NetworkKind::Mesh;
        if (network.size() > 4)
            params.meshLinkBits = parsePositiveUnsigned(
                network.c_str() + 4, "--network=mesh");
    } else if (network != "uniform") {
        fatal("unknown network '%s' (use uniform or mesh16|32|64)",
              network.c_str());
    }
    params.applyConsistencyDefaults();

    System sys(params, sim_threads);

    // The flight recorder observes the protocol layer without
    // perturbing it: simulated stats are identical with it on or off.
    std::unique_ptr<TraceSink> tracer;
    if (!trace_out.empty()) {
        tracer = std::make_unique<TraceSink>(params.numProcs,
                                             trace_buffer);
        sys.setTracer(tracer.get());
        tracer->installFailureDump();
    }

    // Same discipline as the flight recorder: the attribution sink
    // only observes, so installing it cannot change the run.
    std::unique_ptr<AttribSink> attrib_sink;
    if (attrib) {
        attrib_sink = std::make_unique<AttribSink>(params.numProcs);
        sys.setAttrib(attrib_sink.get());
    }

    std::unique_ptr<CoherenceChecker> checker;
    if (check) {
        CoherenceChecker::Options copts;
        copts.failFast = true;
        checker = std::make_unique<CoherenceChecker>(sys, copts);
    }
    std::unique_ptr<Watchdog> watchdog;
    if (watchdog_enabled) {
        Watchdog::Options wopts;
        wopts.interval = watchdog_interval;
        watchdog = std::make_unique<Watchdog>(sys, wopts);
        watchdog->arm();
    }

    auto workload = makeWorkload(app, scale, seed);
    WorkloadRun run =
        runWorkload(sys, *workload, limit, sample_interval);
    RunResult &r = run.stats;

    if (checker)
        checker->checkQuiescent();

    std::printf("app            %s (scale %.2f, seed %llu)\n",
                app.c_str(), scale,
                static_cast<unsigned long long>(seed));
    std::printf("machine        %u procs, %s, %s, %s network, %s "
                "directory\n",
                params.numProcs, r.protocol.c_str(),
                r.consistency.c_str(), network.c_str(),
                params.directory.name().c_str());
    std::printf("verified       %s\n", run.verified ? "yes" : "NO");
    std::printf("execution time %llu pclocks (%.2f ms at 100 MHz)\n",
                static_cast<unsigned long long>(run.execTime),
                run.execTime / 100000.0);
    std::printf("time breakdown busy %.0f | read %.0f | write %.0f | "
                "acquire %.0f | release %.0f\n",
                r.busy, r.readStall, r.writeStall, r.acquireStall,
                r.releaseStall);
    std::printf("miss rates     cold %.3f%%  coherence %.3f%%\n",
                r.coldMissRate(), r.cohMissRate());
    std::printf("network        %llu bytes in %llu messages\n",
                static_cast<unsigned long long>(r.netBytes),
                static_cast<unsigned long long>(r.netMessages));
    if (params.directory.rep != DirRep::FullMap) {
        std::printf("directory      %llu overflow broadcasts, %llu "
                    "pointer evictions\n",
                    static_cast<unsigned long long>(
                        r.dirOverflowBroadcasts),
                    static_cast<unsigned long long>(
                        r.dirPointerEvictions));
    }
    std::printf("kernel         %u worker(s), %llu slabs, %llu node "
                "advances, %llu cross messages, lookahead %llu "
                "pclocks, %llu wakeups elided\n",
                r.simThreads,
                static_cast<unsigned long long>(r.slabRounds),
                static_cast<unsigned long long>(
                    sys.kernelTelemetry().nodeAdvances),
                static_cast<unsigned long long>(r.crossMessages),
                static_cast<unsigned long long>(r.lookahead),
                static_cast<unsigned long long>(
                    sys.totalWakeupsElided()));
    if (checker) {
        std::printf("checker        %llu checks, %llu messages "
                    "observed, 0 violations\n",
                    static_cast<unsigned long long>(
                        checker->checksRun()),
                    static_cast<unsigned long long>(
                        checker->messagesObserved()));
    }

    if (sample_interval > 0) {
        std::printf("timeseries     %zu intervals of %llu pclocks, "
                    "%zu metrics\n",
                    r.timeseries.rows(),
                    static_cast<unsigned long long>(
                        r.timeseries.interval),
                    r.timeseries.names.size());
    }

    if (tracer) {
        std::string error;
        // With --sample-interval the sampled metrics ride along as
        // Perfetto counter tracks on the trace's timeline.
        const MetricTimeSeries *series =
            sample_interval > 0 ? &r.timeseries : nullptr;
        if (!tracer->writeChromeTrace(trace_out, error, series))
            fatal("--trace-out: %s", error.c_str());
        std::printf("trace          %llu records (%llu overwritten) "
                    "-> %s\n",
                    static_cast<unsigned long long>(
                        tracer->recorded()),
                    static_cast<unsigned long long>(
                        tracer->overwritten()),
                    trace_out.c_str());
    }

    if (dump_stats) {
        std::printf("\n---------- statistics dump ----------\n%s",
                    formatSystemStats(sys).c_str());
    }

    // Attribution renders after (never inside) the stats dump so the
    // dump itself stays byte-identical with --attrib on or off.
    if (attrib) {
        std::printf("\n%s",
                    formatAttribution(r.attribution).c_str());
    }
    return run.verified ? 0 : 1;
}
