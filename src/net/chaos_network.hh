/**
 * @file
 * Chaos decorator over any Network model (stress testing).
 *
 * Wraps another network and perturbs every remote message's arrival
 * tick with seeded, deterministic jitter — bounded uniform delay plus
 * occasional long spikes — so directory and cache controllers see
 * message interleavings the well-behaved timing models never produce.
 * Cross-pair reordering always results; same-pair reordering is
 * gated by ChaosParams::preservePairFifo because the protocol relies
 * on pairwise FIFO delivery (see DESIGN.md §"Stress harness").
 *
 * Determinism: the jitter stream is drawn from one Rng in injection
 * order — under the slab kernel, on the coordinator in the canonical
 * drain order (DESIGN.md §15) — so a (seed, workload, machine) triple
 * replays bit-identically at every --sim-threads value, and a failing
 * fuzz run can be reproduced from its command line.
 */

#ifndef CPX_NET_CHAOS_NETWORK_HH
#define CPX_NET_CHAOS_NETWORK_HH

#include <memory>
#include <unordered_map>

#include "net/network.hh"
#include "proto/params.hh"
#include "sim/random.hh"

namespace cpx
{

class ChaosNetwork : public Network
{
  public:
    /**
     * @param event_queue the simulation event queue (shared with
     *                    @p inner, which was built on the same one)
     * @param inner       the real network model to perturb
     * @param chaos       jitter configuration (seed, bounds, FIFO)
     */
    ChaosNetwork(EventQueue &event_queue,
                 std::unique_ptr<Network> inner,
                 const ChaosParams &chaos);

    Tick route(NodeId src, NodeId dst, unsigned total_bytes,
               Tick now) override;

    /**
     * Jitter only ever delays a message and the pairwise FIFO clamp
     * only raises arrivals, so the wrapped model's minimum is still a
     * valid conservative lookahead.
     */
    Tick minCrossLatency() const override {
        return inner_->minCrossLatency();
    }

    /** Total jitter added across all messages, in pclocks. */
    std::uint64_t jitterInjected() const { return jitterTicks.value(); }

    /** Messages whose jittered arrival passed an earlier same-pair
     *  message (only possible with preservePairFifo off). */
    std::uint64_t reorderedDeliveries() const {
        return reordered.value();
    }

    /** Arrivals clamped to keep their (src, dst) pair FIFO. */
    std::uint64_t fifoClamps() const { return clamps.value(); }

    const Network &innerNetwork() const { return *inner_; }

  private:
    std::unique_ptr<Network> inner_;
    ChaosParams cfg;
    Rng rng;
    /** Latest arrival tick per (src, dst) pair, for FIFO clamping. */
    std::unordered_map<std::uint64_t, Tick> lastArrival;
    Counter jitterTicks;
    Counter reordered;
    Counter clamps;
};

} // namespace cpx

#endif // CPX_NET_CHAOS_NETWORK_HH
