/**
 * @file
 * The probe stream: the one observation interface of the protocol
 * layer.
 *
 * Protocol agents announce each milestone of their work — a message
 * sent or delivered, a cache or directory state change, a transaction
 * starting or ending, a prefetch, a write-cache action, a lock handoff
 * — exactly once, through CPX_PROBE. Every observer (the coherence
 * checker, the flight recorder, the stall-attribution sink) is a
 * Probe installed on the Fabric and turns the milestones it cares
 * about into its own records or checks; the protocol code knows
 * nothing of their record layouts.
 *
 * With no probe installed, CPX_PROBE is one untaken branch and
 * evaluates none of its arguments. Installed probes receive every
 * milestone in install order. Probes are called on the host thread
 * that executes the emitting node; one whose state spans nodes must
 * say so (sequentialOnly()) and the system then runs on one worker.
 */

#ifndef CPX_OBS_PROBE_HH
#define CPX_OBS_PROBE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace cpx
{

enum class MsgClass;  // net/network.hh

/** Kinds of transaction: an SLC transaction at its requester, or the
 *  directory service it causes at the home. */
enum class TxnKind : std::uint8_t
{
    Read,       //!< demand read miss
    Prefetch,   //!< non-binding prefetch
    WriteMiss,  //!< read-exclusive
    Upgrade,    //!< ownership only
    Update,     //!< CW combined-write flush
    WriteBack,  //!< replacement write-back (home side only)
};

constexpr unsigned numTxnKinds = 6;

/** Short name of a transaction kind ("read", "write-miss", ...). */
inline const char *
txnKindName(TxnKind kind)
{
    static constexpr const char *names[numTxnKinds] = {
        "read", "prefetch", "write-miss", "upgrade", "update",
        "writeback"};
    const auto k = static_cast<unsigned>(kind);
    return k < numTxnKinds ? names[k] : "?";
}

/** An SLC line's state after a transition. */
enum class SlcLineState : std::uint8_t
{
    Invalid,
    Shared,
    Dirty,
};

/**
 * Milestones of one directory service at its home, filled in by
 * plain stores as the service progresses (whether or not a probe is
 * installed) and handed over once when it ends.
 */
struct DirService
{
    Tick enqueuedAt = 0;   //!< entered the per-block queue
    Tick dequeuedAt = 0;   //!< left the queue (service start)
    Tick actionAt = 0;     //!< directory state read, acting
    Tick fanoutAt = 0;     //!< inval/probe fan-out sent (0 none)
    Tick lastRespAt = 0;   //!< last fan-out response (0 none)
    NodeId from = invalidNode;  //!< requester
    TxnKind kind = TxnKind::Read;
    bool fetch = false;      //!< recalled the block from its owner
    bool imprecise = false;  //!< fanned out over an inexact sharer set
};

/** An observer of protocol milestones. Every method defaults to a
 *  no-op, so a probe overrides only what it consumes. */
class Probe
{
  public:
    /** True if the probe keeps state across nodes, which the
     *  parallel kernel would race on: the run then uses one worker. */
    virtual bool sequentialOnly() const { return false; }

    // --- messages (correlated by @p id) ----------------------------------
    virtual void onMsgSend(NodeId /*src*/, NodeId /*dst*/,
                           unsigned /*payload*/, MsgClass,
                           std::uint64_t /*id*/) {}
    virtual void onMsgRecv(NodeId /*src*/, NodeId /*dst*/,
                           unsigned /*payload*/, MsgClass,
                           std::uint64_t /*id*/) {}

    // --- state changes ----------------------------------------------------
    virtual void onSlcState(NodeId /*node*/, Addr /*block*/,
                            SlcLineState) {}
    /** @p presence holds the first 64 presence bits. */
    virtual void onDirState(NodeId /*home*/, Addr /*block*/,
                            std::uint64_t /*presence*/,
                            NodeId /*owner*/, bool /*modified*/) {}
    virtual void onDirServiceDone(NodeId /*home*/, Addr /*block*/,
                                  const DirService &, Tick /*done*/) {}

    // --- SLC transactions -------------------------------------------------
    virtual void onTxnStart(NodeId /*node*/, Addr /*block*/, TxnKind) {}
    /** @p delivered: the reply arrived; @p done: the txn completed. */
    virtual void onTxnEnd(NodeId /*node*/, Addr /*block*/, TxnKind,
                          Tick /*start*/, Tick /*delivered*/,
                          Tick /*done*/) {}

    // --- prefetches and the write cache -----------------------------------
    virtual void onPrefetchIssue(NodeId /*node*/, Addr /*block*/) {}
    virtual void onPrefetchDrop(NodeId /*node*/, Addr /*block*/) {}
    virtual void onPrefetchFill(NodeId /*node*/, Addr /*block*/,
                                Tick /*latency*/) {}
    /** A write allocated a frame, or @p combined into a resident one. */
    virtual void onWcWrite(NodeId /*node*/, Addr /*block*/,
                           bool /*combined*/) {}
    virtual void onWcFlush(NodeId /*node*/, Addr /*block*/,
                           std::uint32_t /*dirty_mask*/) {}

    // --- locks ------------------------------------------------------------
    /** The home granted @p lock to @p to: the request arrived at
     *  @p arrived, the grant leaves at @p sent. */
    virtual void onLockGrant(NodeId /*home*/, Addr /*lock*/,
                             NodeId /*to*/, Tick /*arrived*/,
                             Tick /*sent*/) {}
    virtual void onLockRelease(NodeId /*home*/, Addr /*lock*/,
                               NodeId /*by*/) {}
    /** The requester's acquire, issued at @p issued, completed. */
    virtual void onLockDone(NodeId /*node*/, Addr /*lock*/,
                            Tick /*issued*/, Tick /*granted*/) {}

    /**
     * The end-of-run functional flush is about to push cached dirty
     * data (including buffered write-cache words) into the backing
     * store: the last moment at which cached copies and memory are
     * comparable.
     */
    virtual void onBeforeFunctionalFlush() {}

  protected:
    ~Probe() = default;  //!< probes are never deleted through the base
};

/** The installed probes, in install order, and the message
 *  correlation ids drawn while any is installed. */
class ProbeStream
{
  public:
    /** Append @p probe; @p num_nodes sizes the id counters.
     *  @return this stream */
    ProbeStream *
    install(Probe *probe, unsigned num_nodes)
    {
        if (msgIds.size() < num_nodes)
            msgIds.resize(num_nodes);
        probes.push_back(probe);
        return this;
    }

    /** Remove @p probe (no-op if absent).
     *  @return this stream, or nullptr once it is empty */
    ProbeStream *
    remove(const Probe *probe)
    {
        probes.erase(std::remove(probes.begin(), probes.end(), probe),
                     probes.end());
        return probes.empty() ? nullptr : this;
    }

    const std::vector<Probe *> &installed() const { return probes; }

    bool
    sequentialOnly() const
    {
        return std::any_of(probes.begin(), probes.end(),
                           [](const Probe *p) {
            return p->sequentialOnly();
        });
    }

    /** Deliver one milestone to every probe, in install order. */
    template <typename... Params, typename... Args>
    void
    emit(void (Probe::*milestone)(Params...), const Args &...args) const
    {
        for (Probe *p : probes)
            (p->*milestone)(args...);
    }

    /**
     * Fresh correlation id for a message send/recv pair, drawn from
     * @p src's private counter and tagged with the node id so ids
     * stay globally unique (and nonzero) without shared state.
     */
    std::uint64_t
    nextMsgId(NodeId src)
    {
        return (static_cast<std::uint64_t>(src) << 40) |
               ++msgIds[src].count;
    }

  private:
    //! Cache-line padded: each is bumped only by the worker
    //! executing that node.
    struct alignas(64) MsgIdCounter { std::uint64_t count = 0; };

    std::vector<Probe *> probes;
    std::vector<MsgIdCounter> msgIds;
};

} // namespace cpx

/**
 * Emit @p milestone (a Probe method name) to @p fabric_expr's probe
 * stream. With no probe installed this is one untaken branch and the
 * arguments are never evaluated.
 */
#define CPX_PROBE(fabric_expr, milestone, ...)                          \
    do {                                                                \
        if (::cpx::ProbeStream *cpxProbes_ = (fabric_expr).probes())    \
            cpxProbes_->emit(&::cpx::Probe::milestone                   \
                                 __VA_OPT__(, ) __VA_ARGS__);           \
    } while (0)

#endif // CPX_OBS_PROBE_HH
