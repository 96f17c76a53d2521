/**
 * @file
 * Protocol flight recorder: per-node ring buffers of compact binary
 * trace records.
 *
 * Every node owns a fixed-capacity ring of 32-byte TraceRecords; new
 * records overwrite the oldest once the ring is full, so memory is
 * bounded no matter how long the run is. The sink is a Probe
 * (probe.hh): it turns each protocol milestone into one record, and
 * with no probe installed the protocol pays one untaken branch per
 * milestone, preserving the kernel's events/s.
 *
 * Three consumers read the rings:
 *  - the Chrome-trace-event JSON exporter (cpxsim --trace-out=PATH),
 *    loadable in Perfetto/catapult: one track per node, duration
 *    events for SLC transactions, instants for everything else;
 *  - formatTails(), a human-readable last-N-events-per-node dump
 *    appended to the stall diagnostics (Watchdog, System::run);
 *  - installFailureDump(), which registers the sink with the logging
 *    layer so panic()/fatal() print the tails before dying.
 */

#ifndef CPX_OBS_TRACE_HH
#define CPX_OBS_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/probe.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace cpx
{

struct MetricTimeSeries;

/** What happened. Kept in sync with kindName() in trace.cc. */
enum class TraceKind : std::uint16_t
{
    MsgSend,        //!< protocol message injected (addr=payload bytes)
    MsgRecv,        //!< protocol message delivered at the receiver
    SlcState,       //!< SLC line state/contents changed (arg=new state)
    DirState,       //!< directory entry changed at its home
    TxnStart,       //!< SLC transaction entered the SLWB
    TxnEnd,         //!< SLC transaction completed (arg=latency)
    PrefetchIssue,  //!< hardware prefetch sent to the home
    PrefetchDrop,   //!< prefetch dropped (SLWB full)
    PrefetchFill,   //!< pure prefetch data arrived (arg=latency)
    WcInsert,       //!< write allocated a write-cache frame
    WcCombine,      //!< write combined into a resident frame
    WcFlush,        //!< combined-write flush issued (arg=dirty mask)
    LockAcquire,    //!< lock granted by its home (aux=grantee)
    LockRelease,    //!< lock released at its home (aux=releaser)
};

/** Short name of a record kind ("msg-send", "txn-start", ...). */
const char *traceKindName(TraceKind kind);

/** One flight-recorder entry. Meaning of addr/arg/aux is per-kind
 *  (see TraceKind); compact and trivially copyable by design. */
struct TraceRecord
{
    Tick tick = 0;           //!< simulated time of the event
    Addr addr = 0;           //!< block/lock address (payload for msgs)
    std::uint64_t arg = 0;   //!< kind-specific (msg id, latency, mask)
    TraceKind kind = TraceKind::MsgSend;
    std::uint16_t node = 0;  //!< recording node
    std::uint32_t aux = 0;   //!< kind-specific (peer|class, TxnKind)
};

static_assert(sizeof(TraceRecord) == 32,
              "trace records are meant to stay compact");

/**
 * Marks "no peer" in the 16-bit peer half of a packed aux word
 * (message peers, the directory-state owner). Above every real node
 * id, so 256-node traces cannot alias it.
 */
constexpr std::uint32_t tracePeerNone = 0xffffu;

static_assert(maxNodes < tracePeerNone,
              "node ids must fit below the packed-peer sentinel");

/** Pack a peer (or invalidNode) and a 16-bit tag (a MsgClass, the
 *  directory's modified bit) into an aux word. */
template <typename Tag>
constexpr std::uint32_t
traceAux(NodeId peer, Tag tag)
{
    return (peer == invalidNode ? tracePeerNone : peer & tracePeerNone) |
           (static_cast<std::uint32_t>(tag) << 16);
}

/** Fixed-capacity overwrite-oldest record ring. */
class TraceRing
{
  public:
    explicit TraceRing(std::size_t capacity)
        : buf(capacity ? capacity : 1)
    {}

    void
    push(const TraceRecord &rec)
    {
        buf[head] = rec;
        head = head + 1 == buf.size() ? 0 : head + 1;
        ++pushed;
    }

    std::size_t capacity() const { return buf.size(); }

    /** Records currently resident (== capacity once wrapped). */
    std::size_t
    size() const
    {
        return pushed < buf.size() ? static_cast<std::size_t>(pushed)
                                   : buf.size();
    }

    /** Records ever pushed. */
    std::uint64_t total() const { return pushed; }

    /** Records lost to overwrite. */
    std::uint64_t overwritten() const { return pushed - size(); }

    /** Resident records, oldest first. */
    std::vector<TraceRecord> snapshot() const;

  private:
    std::vector<TraceRecord> buf;
    std::size_t head = 0;      //!< next write position
    std::uint64_t pushed = 0;
};

/**
 * The per-system flight recorder: one ring per node plus the export
 * and dump machinery. Install on a System with setTracer(). Timestamps
 * come from the recording thread's installed tick source
 * (Logger::currentTick()): under the parallel kernel each worker
 * stamps with the queue of the node it is executing, so records carry
 * that node's time, not some other partition's. Rings are per node,
 * and a node's milestones are only ever emitted by the worker that
 * owns it, so the sink is safe under the parallel kernel without
 * locks.
 */
class TraceSink : public Probe
{
  public:
    static constexpr std::size_t defaultRingCapacity = 4096;

    explicit TraceSink(unsigned num_nodes,
                       std::size_t capacity_per_node =
                           defaultRingCapacity);
    ~TraceSink();

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    // --- Probe: each milestone but the attribution-only ones ---------------
    void onMsgSend(NodeId src, NodeId dst, unsigned payload,
                   MsgClass klass, std::uint64_t id) override {
        record(src, TraceKind::MsgSend, payload, id, traceAux(dst, klass));
    }
    void onMsgRecv(NodeId src, NodeId dst, unsigned payload,
                   MsgClass klass, std::uint64_t id) override {
        record(dst, TraceKind::MsgRecv, payload, id, traceAux(src, klass));
    }
    void onSlcState(NodeId node, Addr block, SlcLineState st) override {
        record(node, TraceKind::SlcState, block, std::uint64_t(st));
    }
    void onDirState(NodeId home, Addr block, std::uint64_t presence,
                    NodeId owner, bool modified) override {
        record(home, TraceKind::DirState, block, presence,
               traceAux(owner, modified));
    }
    void onTxnStart(NodeId node, Addr block, TxnKind kind) override {
        record(node, TraceKind::TxnStart, block, 0, std::uint32_t(kind));
    }
    void onTxnEnd(NodeId node, Addr block, TxnKind kind, Tick start,
                  Tick, Tick done) override {
        record(node, TraceKind::TxnEnd, block, done - start,
               std::uint32_t(kind));
    }
    void onPrefetchIssue(NodeId node, Addr block) override {
        record(node, TraceKind::PrefetchIssue, block);
    }
    void onPrefetchDrop(NodeId node, Addr block) override {
        record(node, TraceKind::PrefetchDrop, block);
    }
    void onPrefetchFill(NodeId node, Addr block, Tick lat) override {
        record(node, TraceKind::PrefetchFill, block, lat);
    }
    void onWcWrite(NodeId node, Addr block, bool combined) override {
        record(node, combined ? TraceKind::WcCombine : TraceKind::WcInsert,
               block);
    }
    void onWcFlush(NodeId node, Addr block, std::uint32_t mask) override {
        record(node, TraceKind::WcFlush, block, mask);
    }
    void onLockGrant(NodeId home, Addr lock, NodeId to, Tick,
                     Tick) override {
        record(home, TraceKind::LockAcquire, lock, 0, to);
    }
    void onLockRelease(NodeId home, Addr lock, NodeId by) override {
        record(home, TraceKind::LockRelease, lock, 0, by);
    }

    unsigned numNodes() const {
        return static_cast<unsigned>(rings.size());
    }
    const TraceRing &ring(NodeId node) const { return rings[node]; }

    /** Records pushed across all nodes (including overwritten). */
    std::uint64_t recorded() const;

    /** Records lost to ring overwrite across all nodes. */
    std::uint64_t overwritten() const;

    // --- exporters ----------------------------------------------------------
    /**
     * Render the rings as a Chrome-trace-event JSON document
     * (Perfetto/catapult loadable). One track per node; matched
     * TxnStart/TxnEnd pairs become async duration events ("b"/"e",
     * always balanced), everything else becomes instants. Pass the
     * run's interval-sampled series (--sample-interval) to also emit
     * one Perfetto counter track ("C" events) per metric, stamped at
     * each window's end tick, so protocol events and interval metrics
     * line up on one correlated timeline.
     */
    std::string chromeTraceJson(
        const MetricTimeSeries *series = nullptr) const;

    /** Write chromeTraceJson(@p series) to @p path; false + @p error
     *  on I/O failure. */
    bool writeChromeTrace(const std::string &path, std::string &error,
                          const MetricTimeSeries *series =
                              nullptr) const;

    /** Human-readable last-@p per_node events per node (stall dumps). */
    std::string formatTails(std::size_t per_node = 16) const;

    /**
     * Register this sink with the logging layer so panic()/fatal()
     * on this thread dump formatTails() to stderr before dying.
     * Deregistered automatically on destruction.
     */
    void installFailureDump();

  private:
    static void failureDump(void *ctx);

    void
    record(NodeId node, TraceKind kind, Addr addr,
           std::uint64_t arg = 0, std::uint32_t aux = 0)
    {
        rings[node].push(TraceRecord{Logger::currentTick(), addr, arg,
                                     kind,
                                     static_cast<std::uint16_t>(node),
                                     aux});
    }

    std::vector<TraceRing> rings;
};

} // namespace cpx

#endif // CPX_OBS_TRACE_HH
