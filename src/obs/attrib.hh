/**
 * @file
 * Causal stall attribution: per-transaction critical-path profiling.
 *
 * The flight recorder (trace.hh) answers "what happened"; this sink
 * answers "where did the cycles go". It is a Probe (probe.hh) that
 * keeps one compact record per completed unit of work — an SLC
 * transaction at its requester, a directory service at its home, a
 * lock grant at the lock's home, a lock acquire at its requester —
 * each carrying the simulated-tick stamps of the causal milestones
 * along its path.
 * After the run, aggregateAttribution() joins the requester-side and
 * home-side records of the same transaction (the per-(block,
 * requester) serialization the protocol already guarantees makes the
 * join a deterministic two-pointer walk in time order) and telescopes
 * each matched pair into attributed segments:
 *
 *   request     issue -> arrival in the home's per-block queue
 *   dirQueue    wait behind earlier requests to the same block
 *   dirService  the home's directory-state memory access
 *   ownerFetch  recall round-trip to a MODIFIED owner
 *   invalFanout inval/probe fan-out -> last ack (max over sharers)
 *   ackCollect  final ack -> grant leaves the home
 *   dataReturn  grant in flight back to the requester
 *   fill        delivery -> SLC transaction completion (port + fill)
 *
 * and each lock acquire into homeQueue (arrival at the lock home ->
 * grant sent, including the home's memory access) vs transfer
 * (everything else: both network traversals plus requester-side
 * waits).
 *
 * Recording is observation-only: agents stamp inert fields on state
 * they already own and emit milestones behind a single null-check
 * branch (CPX_PROBE), so simulated stats are
 * bit-identical with attribution on or off. Records live in per-node
 * vectors appended only by the worker that owns the node, so the sink
 * is safe under the parallel kernel without locks; the kernel's
 * bit-identical execution order makes every vector's contents — and
 * therefore the aggregate — identical at any --sim-threads value.
 */

#ifndef CPX_OBS_ATTRIB_HH
#define CPX_OBS_ATTRIB_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/probe.hh"
#include "sim/types.hh"

namespace cpx
{

/** Bucket geometry of the per-home queue-wait histograms. */
constexpr std::uint64_t attribBucketWidth = 256;
constexpr std::size_t attribBucketCount = 64;

/** Rows kept in the hot-block / hot-lock tables. */
constexpr std::size_t attribTopN = 8;

/** One attribution record. Stamp meaning is per-kind (see fields). */
struct AttribRecord
{
    enum class Kind : std::uint8_t
    {
        TxnDone,    //!< SLC transaction completed (at the requester)
        DirDone,    //!< directory service finished (at the home)
        LockGrant,  //!< lock grant sent (at the lock home)
        LockDone,   //!< lock acquire completed (at the requester)
    };

    // flags bits
    static constexpr std::uint8_t flagFetch = 1u << 0;     //!< owner recall path
    static constexpr std::uint8_t flagImprecise = 1u << 1; //!< fan-out over inexact sharer set

    Kind kind = Kind::TxnDone;
    std::uint8_t flags = 0;
    std::uint16_t node = 0;   //!< recording node (home or requester)
    std::uint32_t aux = 0;    //!< DirDone: requester | TxnKind << 16;
                              //!< LockGrant: grantee node;
                              //!< TxnDone: TxnKind code
    Addr addr = 0;            //!< block / lock address
    // Kind-specific milestone ticks:
    //   TxnDone:   t0 issue, t1 reply delivered, t2 completed
    //   DirDone:   t0 enqueued, t1 dequeued, t2 acted, t3 fan-out
    //              sent (0 none), t4 last response (0 none), t5 done
    //   LockGrant: t0 arrived at home, t1 grant sent
    //   LockDone:  t0 issue, t1 granted (fiber resumed)
    Tick t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0;
};

/**
 * Per-node append-only record store. Install on a System with
 * setAttrib(); it turns the four completion milestones into records.
 */
class AttribSink : public Probe
{
  public:
    explicit AttribSink(unsigned num_nodes) : nodes(num_nodes) {}

    AttribSink(const AttribSink &) = delete;
    AttribSink &operator=(const AttribSink &) = delete;

    // --- Probe ------------------------------------------------------------
    void onTxnEnd(NodeId node, Addr block, TxnKind kind, Tick start,
                  Tick delivered, Tick done) override;
    void onDirServiceDone(NodeId home, Addr block, const DirService &svc,
                          Tick done) override;
    void onLockGrant(NodeId home, Addr lock, NodeId to, Tick arrived,
                     Tick sent) override;
    void onLockDone(NodeId node, Addr lock, Tick issued,
                    Tick granted) override;

    void
    record(NodeId node, const AttribRecord &rec)
    {
        nodes[node].recs.push_back(rec);
    }

    unsigned numNodes() const {
        return static_cast<unsigned>(nodes.size());
    }
    const std::vector<AttribRecord> &records(NodeId node) const {
        return nodes[node].recs;
    }

    /** Records deposited across all nodes. */
    std::uint64_t
    recorded() const
    {
        std::uint64_t n = 0;
        for (const auto &slot : nodes)
            n += slot.recs.size();
        return n;
    }

  private:
    //! Cache-line padded: each vector is appended only by the worker
    //! executing that node, never concurrently.
    struct alignas(64) NodeRecords
    {
        std::vector<AttribRecord> recs;
    };

    std::vector<NodeRecords> nodes;
};

/** Attributed segment totals for one transaction class. */
struct AttribSegments
{
    std::uint64_t count = 0;
    std::uint64_t latency = 0;     //!< end-to-end ticks
    std::uint64_t request = 0;
    std::uint64_t dirQueue = 0;
    std::uint64_t dirService = 0;
    std::uint64_t ownerFetch = 0;
    std::uint64_t invalFanout = 0;
    std::uint64_t ackCollect = 0;
    std::uint64_t dataReturn = 0;
    std::uint64_t fill = 0;
    std::uint64_t dataHops = 0;    //!< sum of data-return hop counts

    std::uint64_t
    segmentSum() const
    {
        return request + dirQueue + dirService + ownerFetch +
               invalFanout + ackCollect + dataReturn + fill;
    }
};

/** One hot-block / hot-lock table row. */
struct AttribHotSpot
{
    Addr addr = 0;
    NodeId home = 0;
    std::uint64_t count = 0;      //!< requests (blocks) / grants (locks)
    std::uint64_t totalWait = 0;  //!< queue-wait ticks at the home
    double p99Wait = 0;           //!< per-address histogram p99

    double
    meanWait() const
    {
        return count ? static_cast<double>(totalWait) / count : 0.0;
    }
};

/** Queue-pressure summary for one home node (only active homes are
 *  kept; sorted by node id). */
struct AttribHomeStats
{
    NodeId node = 0;
    std::uint64_t dirRequests = 0;
    std::uint64_t dirWaitTotal = 0;
    double dirWaitP99 = 0;
    std::uint64_t lockGrants = 0;
    std::uint64_t lockWaitTotal = 0;
    double lockWaitP99 = 0;
};

/** Lock-path attribution totals. */
struct AttribLockStats
{
    std::uint64_t count = 0;     //!< matched acquires
    std::uint64_t latency = 0;   //!< issue -> grant delivered
    std::uint64_t homeQueue = 0; //!< arrival at home -> grant sent
    std::uint64_t transfer = 0;  //!< latency - homeQueue
};

/**
 * The aggregate a run carries in its RunResult: (TxnKind x segment)
 * matrix, lock split, per-home queue pressure, deterministic top-N
 * hot tables, and join/precision bookkeeping. Plain numbers only —
 * the working histograms are reduced at aggregation time so the
 * sweep wire format stays small and exact.
 */
struct AttributionResult
{
    bool enabled = false;
    AttribSegments classes[numTxnKinds];  //!< rows by TxnKind; the
                                          //!< WriteBack row is home-only
    AttribLockStats locks;
    std::vector<AttribHomeStats> homes;
    std::vector<AttribHotSpot> hotBlocks;
    std::vector<AttribHotSpot> hotLocks;
    std::uint64_t matchedTxns = 0;
    std::uint64_t unmatchedDir = 0;   //!< non-writeback dir services
                                      //!< with no requester record
    std::uint64_t matchedLocks = 0;
    std::uint64_t unmatchedLocks = 0;
    std::uint64_t fanoutTotal = 0;     //!< fan-out rounds observed
    std::uint64_t fanoutImprecise = 0; //!< ... over inexact sharer sets
};

/**
 * Join and reduce a sink's records (see file header). @p hops maps a
 * (home, requester) pair to the network hop count charged to the
 * data-return segment — pass the mesh's Manhattan distance, or a
 * constant 1 for uniform networks. Deterministic: iterates nodes in
 * id order, aggregates in u64, breaks ties by address.
 */
AttributionResult aggregateAttribution(
    const AttribSink &sink,
    const std::function<unsigned(NodeId, NodeId)> &hops);

/** Render an AttributionResult as human-readable text (cpxsim). */
std::string formatAttribution(const AttributionResult &ar);

} // namespace cpx

#endif // CPX_OBS_ATTRIB_HH
