/**
 * @file
 * Lockup-free second-level cache controller (§2, §3 of the paper).
 *
 * The SLC is a direct-mapped write-back cache (infinite by default)
 * that keeps every pending request in a second-level write buffer
 * (SLWB) instead of transient line states. It implements:
 *
 *  - the cache side of the BASIC write-invalidate protocol
 *    (read/write misses, upgrades, invalidations, fetches,
 *    write-backs, inclusion over the FLC);
 *  - P:  issue of adaptive sequential prefetches on demand read
 *        misses, the per-line "prefetched" bit, and usefulness
 *        feedback to the Prefetcher;
 *  - CW: the write cache, per-line competitive counters, update
 *        application/acknowledgment, reads served from the write
 *        cache, and migratory-probe responses;
 *  - M:  the per-line "locally modified" bit used for migratory
 *        demotion and CW+M probes;
 *  - both consistency models: writeRC() retires writes into the SLWB
 *    (release consistency), writeSC() reports global performance
 *    (sequential consistency), drainWrites() implements the
 *    release-time fence.
 *
 * The simulator is data-carrying: cache lines hold word values, and
 * a processor reads whatever its own cache hierarchy would supply at
 * that instant — a stale SHARED copy keeps returning the old value
 * until coherence actually reaches this node. This is what makes
 * spin-wait synchronization and critical-section timing faithful.
 */

#ifndef CPX_PROTO_SLC_HH
#define CPX_PROTO_SLC_HH

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/flc.hh"
#include "mem/miss_class.hh"
#include "mem/tag_store.hh"
#include "mem/write_cache.hh"
#include "net/network.hh"
#include "proto/fabric.hh"
#include "proto/messages.hh"
#include "proto/prefetcher.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"

namespace cpx
{

class MetricRegistry;

class SlcController
{
  public:
    using Callback = std::function<void()>;

    /** SLC line states (two bits in hardware, Table 1). */
    enum class LineState
    {
        Shared,
        Dirty,
    };

    struct Line
    {
        bool valid = false;
        LineState state = LineState::Shared;
        bool prefetched = false;      //!< P: fetched, not yet referenced
        bool locallyModified = false; //!< M/CW: written since last update
        unsigned compCounter = 0;     //!< CW: competitive countdown
        std::vector<std::uint32_t> data;  //!< word values
    };

    /**
     * @param node   owning node id
     * @param fabric system wiring
     * @param flc    the node's first-level cache (inclusion)
     */
    SlcController(NodeId node, Fabric &fabric, Flc &flc);

    // --- processor-side interface -----------------------------------------
    /**
     * Read access (after an FLC miss). @p done runs when the data is
     * available in the SLC (the caller adds the FLC fill).
     */
    void readAccess(Addr a, Callback done);

    /**
     * Release-consistency write, drained from the FLWB. @p retired
     * runs when the SLC has accepted the write (the FLWB slot can be
     * reused); global performance is tracked internally.
     *
     * @param a     word-aligned address (4- or 8-byte access)
     * @param value written value (low 32 bits for 4-byte accesses)
     * @param bytes 4 or 8; must not straddle a block boundary
     */
    void writeRC(Addr a, std::uint64_t value, unsigned bytes,
                 Callback retired);

    /**
     * Sequential-consistency write. @p performed runs when the write
     * is globally performed.
     */
    void writeSC(Addr a, std::uint64_t value, unsigned bytes,
                 Callback performed);

    /**
     * Release fence: flush the write cache and run @p done once
     * every pending ownership/update request has completed.
     */
    void drainWrites(Callback done);

    /**
     * Software-controlled non-binding prefetch ([9]; contrasted with
     * the hardware scheme in §6 of the paper). Fire-and-forget: a
     * no-op when the block is resident or pending, dropped when the
     * SLWB is full. @p exclusive requests a read-exclusive prefetch
     * (Mowry-Gupta style, for blocks about to be written).
     */
    void softwarePrefetch(Addr a, bool exclusive);

    /**
     * The value this node's hierarchy supplies for the word at
     * @p a right now: write cache, then SLC line, then memory.
     */
    std::uint32_t read32Value(Addr a) const;

    /** Two-word (8-byte) variant of read32Value(). */
    std::uint64_t read64Value(Addr a) const;

    // --- network-side interface ---------------------------------------------
    void onReply(Addr block, ReplyKind kind);
    void onInvalidate(Addr block, NodeId home);
    void onFetch(Addr block, NodeId home, bool invalidate);
    void onUpdate(Addr block, NodeId home, std::uint32_t mask,
                  const std::vector<std::uint32_t> &words,
                  NodeId writer);
    void onMigProbe(Addr block, NodeId home);

    // --- quiescent-state maintenance ----------------------------------------
    /**
     * Write every dirty line and buffered write back to memory
     * (functional, no timing). Used at end of run before workload
     * verification.
     */
    void flushFunctionalState();

    // --- inspection -----------------------------------------------------------
    /** Look up a line (tests). */
    const Line *findLine(Addr a) const { return tags.find(a); }

    /**
     * Mutable line lookup. For fault injection only: the stress
     * tests corrupt a line through this to prove the checker trips.
     */
    Line *findLineMutable(Addr a) { return tags.find(a); }

    /** Pending transactions (0 at quiescence). */
    std::size_t pendingTransactions() const { return txns.size(); }

    /**
     * @return true iff a transaction for @p block is outstanding.
     * Includes upgrades still waiting for an SLWB slot: the line may
     * already carry the merged (not yet globally performed) write
     * values, so invariant checks must treat the block as
     * mid-transaction.
     */
    bool hasPendingTransaction(Addr block) const {
        return txns.count(block) != 0 ||
               deferredUpgrades.count(block) != 0 ||
               pendingFlushes.count(block) != 0;
    }

    /** Diagnostic view of one outstanding transaction. */
    struct TxnDump
    {
        Addr block = 0;
        const char *kind = "";
        Tick start = 0;
    };

    /** All outstanding transactions (stall dumps). */
    std::vector<TxnDump> pendingTransactionDump() const;

    /** SLWB entries currently in use. */
    unsigned slwbInUse() const { return slwbUsed; }

    /** Pending write-class operations (0 after a release completes). */
    unsigned pendingWriteClass() const { return writeClassOutstanding; }

    Prefetcher &prefetchEngine() { return prefetcher; }
    const Prefetcher &prefetchEngine() const { return prefetcher; }
    const WriteCache &writeCacheUnit() const { return writeCache; }

    // --- statistics --------------------------------------------------------
    /** Demand read misses by kind. */
    std::uint64_t
    readMisses(MissKind k) const
    {
        return readMissKind[static_cast<unsigned>(k)].value();
    }

    /** Demand write misses by kind (write-invalidate modes). */
    std::uint64_t
    writeMisses(MissKind k) const
    {
        return writeMissKind[static_cast<unsigned>(k)].value();
    }

    std::uint64_t totalReadMisses() const;
    std::uint64_t readHits() const { return statReadHits.value(); }
    std::uint64_t writeCacheReadHits() const {
        return statWcReadHits.value();
    }
    std::uint64_t invalidationsReceived() const {
        return statInvalsReceived.value();
    }
    std::uint64_t counterInvalidations() const {
        return statCounterInvals.value();
    }
    std::uint64_t updatesReceived() const {
        return statUpdatesReceived.value();
    }
    std::uint64_t softwarePrefetches() const {
        return statSwPrefetches.value();
    }
    /** Prefetches dropped for lack of an SLWB slot (hw or sw). */
    std::uint64_t prefetchDrops() const {
        return statPrefetchDrops.value();
    }
    const Accumulator &readMissLatency() const { return missLatency; }

    /**
     * Register this controller's interval metrics (miss classes,
     * prefetch outcomes, write-cache activity) under @p prefix
     * (e.g. "node3"). See DESIGN.md §13.
     */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    /** Bucket geometry of the per-transaction latency histograms,
     *  shared with RunResult so per-node merges line up. */
    static constexpr std::uint64_t latencyBucketWidth = 16;
    static constexpr std::size_t latencyBucketCount = 64;

    /** Demand read-miss latency distribution (pclocks). */
    const Histogram &readMissLatencyHist() const {
        return latReadMiss;
    }
    /** Ownership-acquisition (write-miss/upgrade) latency. */
    const Histogram &ownershipLatencyHist() const {
        return latOwnership;
    }
    /** Pure (not demand-joined) prefetch fill latency. */
    const Histogram &prefetchFillLatencyHist() const {
        return latPrefetchFill;
    }

  private:
    /** One SLWB-tracked outstanding transaction. */
    struct Txn
    {
        TxnKind kind = TxnKind::Read;
        Tick start = 0;
        bool demandJoined = false;  //!< a demand read merged in
        bool wantsWrite = false;    //!< a write merged into a read
        /** Word writes to apply when the block is (re)installed. */
        std::vector<std::pair<unsigned, std::uint32_t>> pendingWrites;
        /** Run when the data is available (reads, merged accesses). */
        std::vector<Callback> continuations;
        /** Run when ownership is globally performed (SC writes). */
        std::vector<Callback> writeWaiters;
    };

    static bool
    isWriteClass(TxnKind k)
    {
        return k == TxnKind::WriteMiss || k == TxnKind::Upgrade ||
               k == TxnKind::Update;
    }

    /** Reserve the SLC port and run @p fn when the access completes. */
    void withPort(Callback fn);

    /** Emit the slc-state milestone: the line state or contents for
     *  @p block changed. */
    void notifyProbes(Addr block);

    /** Count and emit a prefetch dropped for want of an SLWB entry. */
    void dropPrefetch(Addr block);

    /** Run @p fn with an SLWB entry held (may wait for a free one). */
    void acquireSlwb(Callback fn);
    void releaseSlwb();

    Txn &createTxn(Addr block, TxnKind kind);

    void issuePrefetches(Addr demand_block);
    void startUpdateFlush(const WriteCacheFlush &rec);
    void retryPendingFlush(Addr block);
    void startPreCountedUpgrade(
        Addr block, std::vector<Callback> waiters,
        std::vector<std::pair<unsigned, std::uint32_t>>
            pending_writes);
    void handleWrite(Addr a, std::uint64_t value, unsigned bytes,
                     bool sc, Callback done);
    Line *installLine(Addr block, const Txn &txn, ReplyKind kind);
    void evictForFill(Addr block);
    void removeLine(Addr block, RemovalCause cause);
    void writeLineToStore(Addr block, const Line &line);
    void maybeFinishRelease();

    void sendToHome(Addr block, unsigned payload,
                    std::function<void(DirectoryController &)> fn,
                    MsgClass klass = MsgClass::Request);

    NodeId self;
    Fabric &fabric;
    const MachineParams &params;
    Flc &flc;

    TagStore<Line> tags;
    MissClassifier classifier;
    Prefetcher prefetcher;
    WriteCache writeCache;
    Resource port;

    std::unordered_map<Addr, Txn> txns;
    /// Blocks whose obligated upgrade is waiting for an SLWB slot.
    std::unordered_map<Addr, unsigned> deferredUpgrades;
    /// Update flush records (write-cache victims/releases, or plain
    /// competitive-update writes) whose Update transaction could not
    /// start yet (SLWB full, or an earlier transaction for the block
    /// still in flight), in issue order. The words are still this
    /// node's responsibility: a concurrent fill must merge them (the
    /// home never propagates a writer's own update back to it) and
    /// reads must still see them. Records stay separate — combining
    /// is the write cache's job; merging here would grant the plain
    /// uncombined protocol traffic savings it does not have.
    std::unordered_map<Addr, std::deque<WriteCacheFlush>>
        pendingFlushes;
    unsigned slwbUsed = 0;
    std::deque<Callback> slwbWaiters;

    unsigned writeClassOutstanding = 0;
    std::vector<Callback> releaseWaiters;

    /// Recent demand-miss blocks (zero-degree prefetch detection).
    std::deque<Addr> recentMisses;

    Counter readMissKind[3];
    Counter writeMissKind[3];
    Counter statReadHits;
    Counter statWcReadHits;
    Counter statInvalsReceived;
    Counter statCounterInvals;
    Counter statUpdatesReceived;
    Counter statSwPrefetches;
    Counter statPrefetchDrops;
    Accumulator missLatency;
    Histogram latReadMiss{latencyBucketWidth, latencyBucketCount};
    Histogram latOwnership{latencyBucketWidth, latencyBucketCount};
    Histogram latPrefetchFill{latencyBucketWidth, latencyBucketCount};
};

} // namespace cpx

#endif // CPX_PROTO_SLC_HH
