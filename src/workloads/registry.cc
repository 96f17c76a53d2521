#include "workloads/workload.hh"

#include "sim/logging.hh"
#include "workloads/apps.hh"
#include "workloads/trace.hh"

namespace cpx
{

WorkloadRun
runWorkload(System &sys, Workload &w, Tick limit, Tick sample_interval)
{
    w.setup(sys);

    // Arm the interval sampler before the event loop starts so the
    // first window begins at tick 0. The registry and sampler live
    // on this frame: both are only read by the sampler event, which
    // stops itself once every processor has finished.
    MetricRegistry registry;
    std::unique_ptr<IntervalSampler> sampler;
    if (sample_interval > 0) {
        sys.registerMetrics(registry);
        sampler = std::make_unique<IntervalSampler>(
            sys.eq(), registry, sample_interval);
        sampler->start(
            [&sys] { return sys.allProcessorsFinished(); });
    }

    Tick exec_time = sys.run(
        [&w](Processor &p, unsigned id) { w.parallel(p, id); },
        limit);
    sys.flushFunctionalState();

    WorkloadRun result;
    result.execTime = exec_time;
    result.verified = w.verify(sys);
    result.stats = collectStats(sys, exec_time);
    if (sampler)
        result.stats.timeseries = sampler->takeSeries();
    if (const AttribSink *attrib = sys.attrib()) {
        // Per-hop attribution of data returns: Network::hops() is the
        // mesh's Manhattan distance, or one logical hop elsewhere.
        result.stats.attribution = aggregateAttribution(
            *attrib, [&sys](NodeId src, NodeId dst) {
                return sys.net().hops(src, dst);
            });
    }
    return result;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, double scale, std::uint64_t seed)
{
    if (name == "lu")
        return makeLu(scale);
    if (name == "lu_swpf")
        return makeLuSoftwarePrefetch(scale);
    if (name == "ocean")
        return makeOcean(scale);
    if (name == "water")
        return makeWater(scale);
    if (name == "mp3d")
        return makeMp3d(scale);
    if (name == "cholesky")
        return makeCholesky(scale);
    if (name == "fft")
        return makeFft(scale);
    if (name == "migratory")
        return makeMigratory(scale);
    if (name == "producer_consumer")
        return makeProducerConsumer(scale);
    if (name == "readonly")
        return makeReadOnly(scale, seed);
    if (name == "false_sharing")
        return makeFalseSharing(scale);
    if (name == "stress")
        return makeStress(scale, seed);
    if (name.rfind("trace:", 0) == 0)
        return makeTraceFile(name.substr(6));
    fatal("unknown workload '%s'", name.c_str());
}

const std::vector<std::string> &
paperApplications()
{
    static const std::vector<std::string> apps{
        "mp3d", "cholesky", "water", "lu", "ocean"};
    return apps;
}

} // namespace cpx
