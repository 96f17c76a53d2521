/**
 * @file
 * cpx_perfbench — host-cost benchmark driver (README.md in this
 * directory).
 *
 *   cpx_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --reference PATH
 *   cpx_perfbench --record PATH
 *
 * Runs one named workload — a fixed list of simulated points — from
 * this process, timing each public call runWorkload() is made of:
 * System construction, Workload::setup, System::run,
 * flushFunctionalState, verify, collectStats and aggregateAttribution.
 *
 * --trace 0 repeats untraced passes over the list until --seconds
 * have elapsed and reports the end-to-end metrics as medians over the
 * passes. --trace 1 runs the isolated unit-cost probes and three
 * passes: traced (causal profiler and allocation counter on, every
 * layer's counters read after each point), plain (both off) and
 * sampled (interval sampler armed), and reports the per-layer
 * metrics. The last line of standard output is one JSON object.
 *
 * A point fails unless it verifies, the protocol is quiescent, and
 * its stats fingerprint matches the reference recorded by --record
 * (points seeded from --seed instead match a rerun at another worker
 * count). --record writes the references of every workload at
 * --sim-threads=1.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/attrib.hh"
#include "obs/metrics.hh"
#include "perfbench.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace perfbench
{
namespace
{

using namespace cpx;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- workloads -------------------------------------------------------------

Point
point(const std::string &app, ProtocolConfig protocol, Consistency c,
      unsigned nodes = 16, const std::string &dir = "fullmap",
      unsigned mesh_link_bits = 0)
{
    Point p;
    p.app = app;
    p.protocol = protocol;
    p.consistency = c;
    p.nodes = nodes;
    p.dir = dir;
    p.meshLinkBits = mesh_link_bits;
    return p;
}

/** Every point runs at the paper's problem size. */
constexpr double scale = 1.0;

constexpr Consistency RC = Consistency::ReleaseConsistency;
constexpr Consistency SC = Consistency::SequentialConsistency;

/**
 * Set-up-only samples taken after each point of an untraced pass.
 * setup_s sums each point's median sample: spread over the run like
 * the passes, and unaffected by a slow or fast moment.
 */
constexpr unsigned setupSamplesPerPoint = 5;

const std::vector<std::string> workloadNames = {"paper16", "mesh16-attrib",
                                                "scale256-w2"};

WorkloadSpec
makeSpec(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec s;
    s.name = name;
    if (name == "paper16") {
        for (const char *app : {"mp3d", "cholesky", "water", "lu", "ocean"}) {
            s.points.push_back(point(app, ProtocolConfig::basic(), RC));
            s.points.push_back(point(app, ProtocolConfig::pcw(), RC));
            s.points.push_back(point(app, ProtocolConfig::pm(), SC));
        }
        Point stress = point("stress", ProtocolConfig::pcwm(), RC);
        stress.seed = seed;
        stress.seeded = true;
        s.points.push_back(stress);
    } else if (name == "mesh16-attrib") {
        s.attrib = true;
        for (const char *app : {"mp3d", "cholesky", "ocean"}) {
            s.points.push_back(
                point(app, ProtocolConfig::pcw(), RC, 16, "fullmap", 16));
            s.points.push_back(
                point(app, ProtocolConfig::pm(), SC, 16, "fullmap", 16));
        }
    } else if (name == "scale256-w2") {
        s.simThreads = 2;
        s.points.push_back(point("mp3d", ProtocolConfig::pcw(), RC, 256));
        s.points.push_back(
            point("mp3d", ProtocolConfig::pm(), SC, 256, "limptr4B"));
        s.points.push_back(point("ocean", ProtocolConfig::pcw(), RC, 64));
        s.points.push_back(point("ocean", ProtocolConfig::pm(), SC, 64));
    } else {
        fatal("perfbench: unknown workload '%s' (paper16, mesh16-attrib, "
              "scale256-w2)",
              name.c_str());
    }
    return s;
}

// --- correctness gate --------------------------------------------------------

/**
 * FNV-1a of the stats dump without the event-queue telemetry lines,
 * which the interval sampler's own events legitimately move (the
 * same stripping as tests/test_metrics.cc).
 */
std::uint64_t
fingerprint(System &sys)
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

struct Reference
{
    Tick execTime = 0;
    std::uint64_t fingerprint = 0;
};

std::map<std::string, Reference>
loadReferences(const std::string &path)
{
    std::map<std::string, Reference> refs;
    std::ifstream in(path);
    if (!in)
        fatal("perfbench: cannot read references '%s'", path.c_str());
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream f(line);
        std::string id, hash;
        Reference r;
        if (!(f >> id >> r.execTime >> hash))
            fatal("perfbench: bad reference line '%s'", line.c_str());
        r.fingerprint = std::strtoull(hash.c_str(), nullptr, 16);
        refs[id] = r;
    }
    return refs;
}

// --- one pass over a workload's points ---------------------------------------

/** Host seconds per phase, summed over a pass's points. */
struct Phases
{
    double construct = 0, setup = 0, run = 0, flush = 0, verify = 0,
           collect = 0, aggregate = 0, check = 0, teardown = 0;

    double
    sum() const
    {
        return construct + setup + run + flush + verify + collect +
               aggregate + check + teardown;
    }
};

struct PassMode
{
    unsigned simThreads = 1;
    bool attrib = false;
    bool traced = false;     //!< count allocations, read every layer
    Tick sampleInterval = 0; //!< arm the interval sampler
};

struct PointOutcome
{
    Tick execTime = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t slabRounds = 0;
    bool verified = false;
    bool quiescent = false;
};

/** Process CPU time and context switches, from getrusage. */
struct Usage
{
    double cpu = 0;
    long volCs = 0, involCs = 0;

    static Usage
    now()
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        Usage u;
        u.cpu = ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
                1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
        u.volCs = ru.ru_nvcsw;
        u.involCs = ru.ru_nivcsw;
        return u;
    }
};

/**
 * Hand freed heap memory back to the system after each point, so that
 * every point starts from the same heap state and the process's peak
 * RSS is the largest single point's, whatever ran before it.
 */
void
releaseFreeMemory()
{
    malloc_trim(0);
}

/** Host-wide CPU jiffies from /proc/stat: {steal, total}. */
std::pair<double, double>
hostJiffies()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double v[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return {0, 0};
    double total = 0;
    for (double &x : v) {
        in >> x;
        total += x;
    }
    return {v[7], total};
}

/** A pass's results; every field is summed over its points. */
struct PassResult
{
    double wall = 0;
    double cpu = 0;
    long volCs = 0, involCs = 0;
    double stealJiffies = 0, hostJiffies = 0;
    std::uint64_t allocs = 0;    //!< operator new calls, whole points
    std::uint64_t runAllocs = 0; //!< ... inside System::run only
    Phases phases;
    LayerCounts layers;
    std::vector<PointOutcome> points;

    Tick
    simPclocks() const
    {
        Tick t = 0;
        for (const PointOutcome &o : points)
            t += o.execTime;
        return t;
    }
};

/** Run one point and add its outcome, costs and counters to @p pass. */
void
runPoint(const Point &pt, const PassMode &mode, PassResult &pass)
{
    Phases &ph = pass.phases;
    setAllocCounting(mode.traced);
    std::uint64_t allocs0 = allocCount();
    Usage u0 = Usage::now();
    auto j0 = hostJiffies();
    auto start = Clock::now();
    auto t = start;
    auto lap = [&t](double &acc) {
        auto n = Clock::now();
        acc += std::chrono::duration<double>(n - t).count();
        t = n;
    };

    auto sys = std::make_unique<System>(pt.params(), mode.simThreads);
    std::unique_ptr<AttribSink> sink;
    if (mode.attrib) {
        sink = std::make_unique<AttribSink>(pt.nodes);
        sys->setAttrib(sink.get());
    }
    lap(ph.construct);

    std::unique_ptr<Workload> w = makeWorkload(pt.app, scale, pt.seed);
    w->setup(*sys);
    MetricRegistry registry;
    std::unique_ptr<IntervalSampler> sampler;
    if (mode.sampleInterval > 0) {
        sys->registerMetrics(registry);
        sampler = std::make_unique<IntervalSampler>(sys->eq(), registry,
                                                    mode.sampleInterval);
        System &s = *sys;
        sampler->start([&s] { return s.allProcessorsFinished(); });
    }
    lap(ph.setup);

    std::uint64_t run_allocs0 = allocCount();
    Workload &work = *w;
    Tick exec = sys->run(
        [&work](Processor &p, unsigned id) { work.parallel(p, id); });
    pass.runAllocs += allocCount() - run_allocs0;
    lap(ph.run);

    sys->flushFunctionalState();
    lap(ph.flush);

    PointOutcome out;
    out.execTime = exec;
    out.verified = w->verify(*sys);
    lap(ph.verify);

    RunResult r = collectStats(*sys, exec);
    lap(ph.collect);

    if (sink) {
        System &s = *sys;
        r.attribution = aggregateAttribution(
            *sink, [&s](NodeId src, NodeId dst) {
                return s.net().hops(src, dst);
            });
    }
    lap(ph.aggregate);

    out.quiescent = sys->quiescent();
    out.fingerprint = fingerprint(*sys);
    out.slabRounds = r.slabRounds;
    if (mode.traced)
        pass.layers.add(*sys, r);
    lap(ph.check);

    sampler.reset();
    w.reset();
    sys.reset();
    sink.reset();
    lap(ph.teardown);

    pass.wall += since(start);
    releaseFreeMemory();
    auto j1 = hostJiffies();
    Usage u1 = Usage::now();
    pass.allocs += allocCount() - allocs0;
    setAllocCounting(false);
    pass.cpu += u1.cpu - u0.cpu;
    pass.volCs += u1.volCs - u0.volCs;
    pass.involCs += u1.involCs - u0.involCs;
    pass.stealJiffies += j1.first - j0.first;
    pass.hostJiffies += j1.second - j0.second;
    pass.points.push_back(out);
}

/**
 * The correctness gate. Fixed-input points must match their recorded
 * reference; seeded points must match a rerun of the same seed at a
 * different worker count (@p reruns, by point index). Every pass must
 * agree with the first. @return failed points of @p pass.
 */
unsigned
gate(const WorkloadSpec &spec, const PassResult &pass,
     const PassResult &first,
     const std::map<std::string, Reference> &refs,
     const std::map<std::size_t, PointOutcome> &reruns,
     const char *label)
{
    unsigned failed = 0;
    for (std::size_t i = 0; i < spec.points.size(); ++i) {
        const Point &pt = spec.points[i];
        const PointOutcome &o = pass.points[i];
        std::string why;
        if (!o.verified)
            why = "verification failed";
        else if (!o.quiescent)
            why = "protocol not quiescent";
        else if (o.fingerprint != first.points[i].fingerprint)
            why = "stats differ from the first pass";
        else if (pt.seeded) {
            auto it = reruns.find(i);
            if (it == reruns.end() ||
                it->second.fingerprint != o.fingerprint)
                why = "stats differ from the rerun at another worker count";
        } else {
            auto it = refs.find(pt.id());
            if (it == refs.end())
                why = "no recorded reference";
            else if (it->second.fingerprint != o.fingerprint)
                why = "stats differ from the reference (execTime " +
                      std::to_string(o.execTime) + ", reference " +
                      std::to_string(it->second.execTime) + ")";
        }
        if (!why.empty()) {
            ++failed;
            std::fprintf(stderr, "perfbench: FAIL %s [%s pass]: %s\n",
                         pt.id().c_str(), label, why.c_str());
        }
    }
    return failed;
}

/** Rerun every seeded point at a different worker count. */
std::map<std::size_t, PointOutcome>
rerunSeeded(const WorkloadSpec &spec)
{
    std::map<std::size_t, PointOutcome> out;
    PassMode mode;
    mode.simThreads = spec.simThreads == 1 ? 2 : 1;
    PassResult scratch;
    for (std::size_t i = 0; i < spec.points.size(); ++i) {
        if (spec.points[i].seeded) {
            runPoint(spec.points[i], mode, scratch);
            out[i] = scratch.points.back();
        }
    }
    return out;
}

/**
 * Host seconds to construct @p pt's System and set its workload up,
 * without running it.
 */
double
timeSetup(const Point &pt, unsigned sim_threads)
{
    auto t0 = Clock::now();
    double seconds;
    {
        auto sys = std::make_unique<System>(pt.params(), sim_threads);
        std::unique_ptr<Workload> w =
            makeWorkload(pt.app, scale, pt.seed);
        w->setup(*sys);
        seconds = since(t0);
    }
    releaseFreeMemory();
    return seconds;
}

// --- output ------------------------------------------------------------------

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

void
emit(const std::vector<Metric> &metrics, unsigned attempted,
     unsigned failed)
{
    for (const Metric &m : metrics)
        std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%-32s %18.6f (%u of %u points)\n", "failed_frac",
                ratio(failed, attempted), failed, attempted);
    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

// --- the two kinds of run ----------------------------------------------------

void
untracedRun(const WorkloadSpec &spec, double seconds,
            const std::map<std::string, Reference> &refs)
{
    PassMode mode;
    mode.simThreads = spec.simThreads;
    mode.attrib = spec.attrib;
    std::vector<PassResult> passes;
    std::vector<std::vector<double>> setup(spec.points.size());
    auto t0 = Clock::now();
    do {
        PassResult pass;
        for (std::size_t i = 0; i < spec.points.size(); ++i) {
            runPoint(spec.points[i], mode, pass);
            for (unsigned r = 0; r < setupSamplesPerPoint; ++r)
                setup[i].push_back(
                    timeSetup(spec.points[i], spec.simThreads));
        }
        passes.push_back(std::move(pass));
        std::fprintf(stderr, "perfbench: %s pass %zu: %.3f s wall\n",
                     spec.name.c_str(), passes.size(), passes.back().wall);
    } while (since(t0) < seconds);

    auto reruns = rerunSeeded(spec);
    unsigned attempted = 0, failed = 0;
    std::vector<double> wall, cpu, rate;
    for (const PassResult &p : passes) {
        attempted += p.points.size();
        failed += gate(spec, p, passes.front(), refs, reruns, "untraced");
        wall.push_back(p.wall);
        cpu.push_back(p.cpu);
        rate.push_back(p.simPclocks() / 1e6 / p.wall);
    }
    double setup_seconds = 0;
    for (const std::vector<double> &samples : setup)
        setup_seconds += median(samples);
    std::printf("workload %s: %zu points x %zu passes, --sim-threads=%u\n",
                spec.name.c_str(), spec.points.size(), passes.size(),
                spec.simThreads);
    emit({{"wall_s", median(wall), "s"},
          {"cpu_s", median(cpu), "s"},
          {"setup_s", setup_seconds, "s"},
          {"peak_rss_mib", peakRssMib(), "MiB"},
          {"sim_mpclk_per_s", median(rate), "Mpclk/s"},
          {"sim_pclocks", double(passes.front().simPclocks()), "pclock"}},
         attempted, failed);
}

void
tracedRun(const WorkloadSpec &spec,
          const std::map<std::string, Reference> &refs)
{
    // Unit costs, measured in isolation before any pass.
    double eq_ns = probeEventQueueNs();
    double fiber_ns = probeFiberSwitchNs();
    double mesh_send_ns = probeMeshSendNs();
    std::map<std::pair<unsigned, unsigned>, double> slab_ns;
    for (const Point &pt : spec.points) {
        auto key = std::make_pair(pt.nodes, pt.meshLinkBits);
        if (!slab_ns.count(key))
            slab_ns[key] = probeSlabRoundNs(pt.nodes, pt.meshLinkBits,
                                           spec.simThreads);
    }

    PassMode traced;
    traced.simThreads = spec.simThreads;
    traced.attrib = true;
    traced.traced = true;
    PassMode plain;
    plain.simThreads = spec.simThreads;
    PassMode sampled = plain;
    sampled.sampleInterval = 5000;

    // The three passes run point by point, interleaved, so that host
    // speed drifting over the run does not bias their comparison.
    PassResult tp, np, sp; // traced, plain, sampled
    for (const Point &pt : spec.points) {
        runPoint(pt, traced, tp);
        runPoint(pt, plain, np);
        runPoint(pt, sampled, sp);
    }
    std::fprintf(stderr,
                 "perfbench: %s run_s traced %.3f, plain %.3f, sampled "
                 "%.3f\n",
                 spec.name.c_str(), tp.phases.run, np.phases.run,
                 sp.phases.run);

    auto reruns = rerunSeeded(spec);
    unsigned attempted = tp.points.size() + np.points.size();
    unsigned failed = gate(spec, tp, tp, refs, reruns, "traced") +
                      gate(spec, np, tp, refs, reruns, "plain");

    // Known defect: the sampler is not neutral at paper scale. The
    // count is reported, not gated.
    unsigned perturbed = 0;
    for (std::size_t i = 0; i < spec.points.size(); ++i) {
        if (sp.points[i].fingerprint != tp.points[i].fingerprint) {
            ++perturbed;
            std::fprintf(stderr,
                         "perfbench: sampler perturbs %s: %llu -> %llu "
                         "pclocks\n",
                         spec.points[i].id().c_str(),
                         (unsigned long long)tp.points[i].execTime,
                         (unsigned long long)sp.points[i].execTime);
        }
    }

    double barrier_ns = 0;
    for (std::size_t i = 0; i < spec.points.size(); ++i) {
        const Point &pt = spec.points[i];
        barrier_ns += tp.points[i].slabRounds *
                     slab_ns[{pt.nodes, pt.meshLinkBits}];
    }

    const LayerCounts &lc = tp.layers;
    const Phases &ph = tp.phases;
    double events = double(lc.events);
    double exec = double(lc.execTime);
    std::printf("workload %s (traced): %zu points, --sim-threads=%u\n",
                spec.name.c_str(), spec.points.size(), spec.simThreads);
    emit({{"core.construct_s", ph.construct, "s"},
          {"workloads.setup_s", ph.setup, "s"},
          {"core.run_s", ph.run, "s"},
          {"core.flush_s", ph.flush, "s"},
          {"workloads.verify_s", ph.verify, "s"},
          {"core.collect_s", ph.collect, "s"},
          {"core.teardown_s", ph.teardown, "s"},
          {"host.check_s", ph.check, "s"},
          {"host.traced_wall_s", tp.wall, "s"},
          {"host.phase_coverage", ratio(ph.sum(), tp.wall), "ratio"},
          {"sim.events", events, "count"},
          {"sim.ns_per_event", ratio(ph.run * 1e9, events), "ns"},
          {"sim.schedule_allocs", double(lc.scheduleAllocs), "count"},
          {"sim.peak_pending", double(lc.peakPending), "count"},
          {"sim.eq_ns_per_event", eq_ns, "ns"},
          {"fiber.switch_ns", fiber_ns, "ns"},
          {"host.allocs", double(tp.allocs), "count"},
          {"host.allocs_per_event", ratio(tp.runAllocs, events), "1/event"},
          {"core.slab_rounds", double(lc.slabRounds), "count"},
          {"core.events_per_slab", ratio(events, lc.slabRounds), "1/slab"},
          {"core.cross_messages", double(lc.crossMessages), "count"},
          {"core.slab_round_ns", ratio(barrier_ns, lc.slabRounds), "ns"},
          {"core.barrier_est_frac", ratio(barrier_ns * 1e-9, ph.run),
           "ratio"},
          {"host.vol_ctx_switches", double(tp.volCs), "count"},
          {"host.invol_ctx_switches", double(tp.involCs), "count"},
          {"host.steal_frac", ratio(tp.stealJiffies, tp.hostJiffies), "ratio"},
          {"node.flc_accesses", double(lc.flcAccesses), "count"},
          {"node.flc_hit_ratio", ratio(lc.flcHits, lc.flcAccesses), "ratio"},
          {"node.busy_frac", ratio(lc.busy, exec), "ratio"},
          {"node.read_stall_frac", ratio(lc.readStall, exec), "ratio"},
          {"node.write_stall_frac", ratio(lc.writeStall, exec), "ratio"},
          {"node.acquire_stall_frac", ratio(lc.acquireStall, exec), "ratio"},
          {"proto.slc_read_misses", double(lc.slcReadMisses), "count"},
          {"proto.coh_miss_ratio", ratio(lc.cohReadMisses, lc.slcReadMisses),
           "ratio"},
          {"proto.dir_requests", double(lc.dirRequests), "count"},
          {"proto.invalidations", double(lc.invalidations), "count"},
          {"proto.updates_forwarded", double(lc.updatesForwarded), "count"},
          {"proto.prefetch_useful_ratio",
           ratio(lc.prefetchesUseful, lc.prefetchesIssued), "ratio"},
          {"proto.wc_combine_ratio",
           ratio(lc.wcCombines, lc.wcCombines + lc.wcInserts), "ratio"},
          {"proto.dir_overflow_broadcasts", double(lc.dirOverflowBroadcasts),
           "count"},
          {"proto.lock_acquires", double(lc.lockAcquires), "count"},
          {"proto.lock_queued_ratio", ratio(lc.lockQueued, lc.lockAcquires),
           "ratio"},
          {"proto.lock_home_queue_ticks", double(lc.lockHomeQueueTicks),
           "pclock"},
          {"proto.dir_queue_ticks", double(lc.dirQueueTicks), "pclock"},
          {"net.messages", double(lc.netMessages), "count"},
          {"net.bytes", double(lc.netBytes), "byte"},
          {"net.mesh_flits", double(lc.meshFlits), "count"},
          {"net.mesh_wait_ticks", double(lc.meshWaitTicks), "pclock"},
          {"net.mesh_send_ns", mesh_send_ns, "ns"},
          {"obs.attrib_aggregate_s", ph.aggregate, "s"},
          {"obs.attrib_overhead_frac",
           ratio(ph.run - np.phases.run, np.phases.run), "ratio"},
          {"obs.sampler_perturbed_points", double(perturbed), "count"}},
         attempted, failed);
}

/** Write the references of every fixed-input point at W=1. */
void
record(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("perfbench: cannot write '%s'", path.c_str());
    out << "# cpx_perfbench references: <point> <execTime> <fingerprint>\n"
           "# Recorded at --sim-threads=1 by `cpx_perfbench --record`.\n";
    for (const std::string &name : workloadNames) {
        WorkloadSpec spec = makeSpec(name, 1);
        PassMode mode;
        PassResult pass;
        for (const Point &pt : spec.points) {
            if (pt.seeded)
                continue;
            runPoint(pt, mode, pass);
            const PointOutcome &o = pass.points.back();
            if (!o.verified || !o.quiescent)
                fatal("perfbench: %s did not verify", pt.id().c_str());
            char hash[17];
            std::snprintf(hash, sizeof hash, "%016llx",
                          (unsigned long long)o.fingerprint);
            out << pt.id() << ' ' << o.execTime << ' ' << hash << '\n';
            std::fprintf(stderr, "perfbench: recorded %s\n",
                         pt.id().c_str());
        }
    }
}

} // anonymous namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload, reference, record_path;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            cpx::fatal("perfbench: option '%s' needs a value", arg.c_str());
        const char *v = argv[++i];
        if (arg == "--workload")
            workload = v;
        else if (arg == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(v);
        else if (arg == "--trace")
            trace = std::atoi(v);
        else if (arg == "--reference")
            reference = v;
        else if (arg == "--record")
            record_path = v;
        else
            cpx::fatal("perfbench: unknown option '%s'", arg.c_str());
    }
    if (!record_path.empty()) {
        record(record_path);
        return 0;
    }
    if (workload.empty() || reference.empty())
        cpx::fatal("perfbench: --workload and --reference are required");
    WorkloadSpec spec = makeSpec(workload, seed);
    auto refs = loadReferences(reference);
    if (trace)
        tracedRun(spec, refs);
    else
        untracedRun(spec, seconds, refs);
    return 0;
}
