/**
 * @file
 * Directory controller (one per node, §2 of the paper).
 *
 * Implements the BASIC write-invalidate protocol — two stable memory
 * states (CLEAN / MODIFIED), a sharer set whose representation is
 * configurable (full-map / limited-pointer / coarse-vector, see
 * proto/sharer_set.hh and DESIGN.md §16), and transient states
 * realized as an explicit per-block service queue — plus the
 * home-side halves of the three extensions:
 *
 *  - P:  prefetch read requests are ordinary read misses at the home
 *        (and return exclusive copies for migratory blocks, §3.4);
 *  - M:  migratory detection on ownership requests (Cox/Fowler [2],
 *        Stenström et al. [12] style) and migratory handoff —
 *        read misses to migratory blocks invalidate the previous
 *        keeper and grant an exclusive copy;
 *  - CW: update propagation with acknowledgment collection, presence
 *        pruning on competitive invalidations, and the paper's §3.4
 *        probe-based migratory detection heuristic for CW+M.
 *
 * Every request to one block is serialized at the home: requests
 * arriving while an earlier one is in service wait in the block's
 * queue (the paper's three transient states made explicit).
 */

#ifndef CPX_PROTO_DIRECTORY_HH
#define CPX_PROTO_DIRECTORY_HH

#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "proto/fabric.hh"
#include "proto/messages.hh"
#include "proto/sharer_set.hh"
#include "sim/stats.hh"

namespace cpx
{

class DirectoryController
{
  public:
    DirectoryController(NodeId node, Fabric &fabric);

    // --- requests from caches (network-delivered) -------------------------
    /** Read miss (or non-binding prefetch) from node @p from. */
    void onReadReq(Addr block, NodeId from, bool prefetch);

    /** Write miss: data + exclusive ownership needed. */
    void onWriteReq(Addr block, NodeId from);

    /** Ownership request for a block @p from holds SHARED. */
    void onUpgradeReq(Addr block, NodeId from);

    /** Replacement write-back of a DIRTY block. */
    void onWriteBack(Addr block, NodeId from);

    /**
     * CW: combined-write flush. @p dirty_mask selects the valid
     * entries of @p words; the home applies them to memory and
     * forwards them to the other cached copies.
     */
    void onUpdateReq(Addr block, NodeId from, std::uint32_t dirty_mask,
                     std::vector<std::uint32_t> words);

    // --- responses from caches --------------------------------------------
    void onInvAck(Addr block, NodeId from);
    void onFetchResp(Addr block, NodeId from, bool did_modify,
                     bool was_present);
    void onUpdateAck(Addr block, NodeId from, bool invalidated);
    void onMigProbeResp(Addr block, NodeId from, bool gave_up);

    // --- inspection (tests / invariant checks) ----------------------------
    struct Snapshot
    {
        bool modified = false;
        NodeId owner = invalidNode;
        /** Expanded sharers, low 64 bits (legacy view for ≤64 nodes). */
        std::uint64_t presence = 0;
        /** Expanded sharers over the full node range. */
        NodeMask sharers;
        /** Whether `sharers` is exact or a superset of the holders. */
        bool exact = true;
        bool migratory = false;
        bool inService = false;
    };

    Snapshot inspect(Addr block) const;

    /** Number of blocks currently mid-transaction (0 at quiescence). */
    std::size_t blocksInService() const;

    /** Every block address with directory state (invariant sweeps). */
    std::vector<Addr> knownBlocks() const;

    /** Diagnostic view of one in-service block (stall dumps). */
    struct ServiceDump
    {
        Addr block = 0;
        NodeId requester = invalidNode;
        unsigned pendingAcks = 0;
        std::size_t queueDepth = 0;
        bool modified = false;
        NodeId owner = invalidNode;
        std::uint64_t presence = 0;
    };

    /** All blocks currently mid-transaction, with queue depths. */
    std::vector<ServiceDump> inServiceDump() const;

    // --- statistics ---------------------------------------------------------
    std::uint64_t readRequests() const { return statReads.value(); }
    std::uint64_t ownershipRequests() const {
        return statWrites.value() + statUpgrades.value();
    }
    std::uint64_t invalidationsSent() const { return statInvals.value(); }
    std::uint64_t fetchesSent() const { return statFetches.value(); }
    std::uint64_t updatesForwarded() const { return statUpdates.value(); }
    std::uint64_t migratoryDetections() const {
        return statMigDetect.value();
    }
    std::uint64_t migratoryDemotions() const {
        return statMigDemote.value();
    }
    std::uint64_t writeBacks() const { return statWritebacks.value(); }
    /** LimitedPtr: times a set overflowed into broadcast mode. */
    std::uint64_t overflowBroadcasts() const {
        return statOverflowBcast.value();
    }
    /** LimitedPtr+Evict: sharers invalidated to free a pointer. */
    std::uint64_t pointerEvictions() const {
        return statPtrEvict.value();
    }

  private:
    struct Queued
    {
        TxnKind kind;  //!< Read and Prefetch share the read path
        NodeId from;
        std::uint32_t dirtyMask = 0;
        std::vector<std::uint32_t> words;
        Tick enqueuedAt = 0;  //!< set in enqueue
    };

    /** In-flight transaction state for one block. */
    struct Txn
    {
        TxnKind kind;
        NodeId requester;
        bool fetchInv = false;     //!< owner must invalidate, not downgrade
        bool evicting = false;     //!< pointer eviction mid-read
        unsigned pendingAcks = 0;
        std::uint32_t dirtyMask = 0;            //!< CW update payload
        std::vector<std::uint32_t> words;       //!< CW update payload
        bool probing = false;      //!< CW+M migratory probe phase
        bool allGaveUp = true;
        NodeMask keepers;          //!< probe survivors
    };

    struct Entry
    {
        bool modified = false;
        NodeId owner = invalidNode;
        SharerSet sharers;
        bool migratory = false;
        NodeId lastWriter = invalidNode;
        NodeId lastUpdater = invalidNode;
        unsigned staleWbExpected = 0;

        bool inService = false;
        std::optional<Txn> txn;
        std::deque<Queued> queue;

        //! Milestones of the request in service: inert stores, read
        //! only when the service ends and a probe is installed, and
        //! never consulted by any protocol decision.
        DirService svc;
    };

    /** Enqueue a request and start service if the block is idle. */
    void enqueue(Addr block, Queued req);
    void startNext(Addr block);
    void process(Addr block, const Queued &req);

    void processRead(Addr block, Entry &e, const Queued &req);
    void processWrite(Addr block, Entry &e, const Queued &req);
    void processUpgrade(Addr block, Entry &e, const Queued &req);
    void processWriteBack(Addr block, Entry &e, const Queued &req);
    void processUpdate(Addr block, Entry &e, const Queued &req);

    /** Classic migratory detection on an ownership request (non-CW). */
    void detectMigratoryOnWrite(Entry &e, NodeId from);

    /** Grant the shared copy a pointer eviction was making room for. */
    void completeEvictedRead(Addr block, Entry &e);

    /** Finish the current request and pick up the next queued one. */
    void finish(Addr block, Entry &e);

    /** Complete an invalidation-collecting write/upgrade transaction. */
    void completeOwnership(Addr block, Entry &e);

    /** Forward a CW update to @p targets and finish when acked. */
    void forwardUpdate(Addr block, Entry &e, const NodeMask &targets);

    /** Apply a combined write's dirty words to home memory. */
    void applyUpdateToMemory(Addr block, std::uint32_t mask,
                             const std::vector<std::uint32_t> &words);

    void sendReply(Addr block, NodeId to, ReplyKind kind,
                   unsigned payload);
    void sendInvalidate(Addr block, NodeId to);
    void sendFetch(Addr block, NodeId to, bool invalidate);
    void sendUpdateMsg(Addr block, NodeId to, std::uint32_t mask,
                       const std::vector<std::uint32_t> &words,
                       NodeId writer);
    void sendMigProbe(Addr block, NodeId to);

    NodeId self;
    Fabric &fabric;
    const MachineParams &params;
    SharerConfig scfg;
    std::unordered_map<Addr, Entry> entries;

    Counter statReads;
    Counter statWrites;
    Counter statUpgrades;
    Counter statInvals;
    Counter statFetches;
    Counter statUpdates;
    Counter statMigDetect;
    Counter statMigDemote;
    Counter statWritebacks;
    Counter statProbes;
    Counter statOverflowBcast;
    Counter statPtrEvict;
};

} // namespace cpx

#endif // CPX_PROTO_DIRECTORY_HH
