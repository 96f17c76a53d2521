/**
 * @file
 * Isolated unit-cost probes. Each drives one layer's public API on
 * its own, outside any System, and reports the median of several
 * repetitions in nanoseconds per operation.
 */

#include "perfbench.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "core/engine.hh"
#include "fiber/fiber.hh"
#include "net/mesh.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"

namespace perfbench
{

using namespace cpx;

namespace
{

constexpr int repetitions = 5;

double
seconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** Median of several runs of @p once, each returning ns per op. */
template <typename F>
double
medianOf(F once)
{
    std::vector<double> v;
    for (int i = 0; i < repetitions; ++i)
        v.push_back(once());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** An event that reschedules itself a pseudo-random 1..32 ticks on. */
struct Hop
{
    EventQueue *q;
    std::uint64_t *left;
    std::uint32_t x;

    void
    operator()()
    {
        if (*left == 0)
            return;
        --*left;
        x = x * 1664525u + 1013904223u;
        q->schedule(q->now() + 1 + (x >> 27), *this);
    }
};

/** An event that reschedules itself every @c period ticks. */
struct Heartbeat
{
    EventQueue *q;
    Tick period;
    std::uint64_t left;

    void
    operator()()
    {
        if (left-- > 0)
            q->schedule(q->now() + period, *this);
    }
};

} // anonymous namespace

double
probeEventQueueNs()
{
    constexpr unsigned chains = 64;
    constexpr std::uint64_t events = 1'000'000;
    return medianOf([] {
        EventQueue eq;
        std::uint64_t left = events;
        for (unsigned c = 0; c < chains; ++c)
            eq.schedule(c, Hop{&eq, &left, c * 2654435761u});
        auto t0 = std::chrono::steady_clock::now();
        eq.run();
        return seconds(t0) * 1e9 / static_cast<double>(eq.executed());
    });
}

double
probeFiberSwitchNs()
{
    constexpr int rounds = 200'000;
    return medianOf([] {
        Fiber f([] {
            for (int i = 0; i < rounds; ++i)
                Fiber::yield();
        });
        auto t0 = std::chrono::steady_clock::now();
        while (!f.finished())
            f.resume();
        // Each resume and each yield is one stack switch.
        return seconds(t0) * 1e9 / (2.0 * (rounds + 1));
    });
}

double
probeSlabRoundNs(unsigned nodes, unsigned mesh_link_bits,
                 unsigned workers)
{
    const std::uint64_t rounds = std::max<std::uint64_t>(
        2000, 400'000 / nodes);
    return medianOf([&] {
        EventQueue kernel;
        std::vector<std::unique_ptr<EventQueue>> queues;
        for (unsigned n = 0; n < nodes; ++n)
            queues.push_back(std::make_unique<EventQueue>());
        std::unique_ptr<Network> net;
        if (mesh_link_bits)
            net = std::make_unique<MeshNetwork>(kernel, nodes,
                                                mesh_link_bits);
        else
            net = std::make_unique<UniformNetwork>(kernel);
        // One slab-wide heartbeat on node 0; every other queue idles,
        // so a round costs the engine's fixed per-slab work.
        Tick period = net->minCrossLatency();
        queues[0]->schedule(0, Heartbeat{queues[0].get(), period, rounds});
        SlabEngine engine(kernel, queues, *net, workers);
        auto t0 = std::chrono::steady_clock::now();
        engine.run(maxTick);
        double dt = seconds(t0);
        return dt * 1e9 /
               static_cast<double>(
                   std::max<std::uint64_t>(1, engine.telemetry().slabRounds));
    });
}

double
probeMeshSendNs()
{
    constexpr unsigned nodes = 16;
    constexpr unsigned batches = 10'000;
    return medianOf([] {
        EventQueue eq;
        MeshNetwork mesh(eq, nodes, 16);
        std::uint32_t x = 12345;
        auto t0 = std::chrono::steady_clock::now();
        for (unsigned b = 0; b < batches; ++b) {
            for (NodeId src = 0; src < nodes; ++src) {
                x = x * 1664525u + 1013904223u;
                NodeId dst = (src + 1 + (x >> 16) % (nodes - 1)) % nodes;
                mesh.send(src, dst, 32, [] {}, MsgClass::Data);
            }
            eq.run();
        }
        return seconds(t0) * 1e9 / (double(batches) * nodes);
    });
}

} // namespace perfbench
