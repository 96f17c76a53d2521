/**
 * @file
 * Runtime coherence-invariant checker.
 *
 * Installs itself as a probe (src/obs/probe.hh) and, after every
 * directory transaction and SLC line transition, re-validates the
 * core invariants of the BASIC+P/M/CW protocol for the affected
 * block:
 *
 *  - SWMR: a MODIFIED directory entry has exactly one presence bit,
 *    a valid owner matching that bit, and no other node caches the
 *    block; the owner's line, when resident, is in the Dirty state
 *    (it may legitimately be absent while a replacement write-back
 *    is in flight — the directory's staleWbExpected race).
 *  - Directory/cache agreement: a CLEAN entry has no owner, no node
 *    holds a Dirty line, and every cached copy is covered by a
 *    presence bit (presence may be a superset: SHARED replacements
 *    are silent).
 *  - Data-value consistency: for CLEAN blocks, every cached copy
 *    matches the backing store word for word, except words the
 *    holder has buffered in its own write cache (CW updates copies
 *    in place before the combined write propagates).
 *
 * Blocks that are mid-transaction — in service at the home, or with
 * an outstanding SLWB transaction at any node — are intentionally
 * skipped: their transient disagreement is the protocol working as
 * designed. Quiescence at drain is checked separately
 * (checkQuiescent()).
 *
 * Costs nothing when not constructed: with no probe installed each
 * milestone is one untaken branch. The checker reads every node's
 * state, so a checked run uses one worker (sequentialOnly()).
 */

#ifndef CPX_CHECK_CHECKER_HH
#define CPX_CHECK_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hh"

namespace cpx
{

class CoherenceChecker : public Probe
{
  public:
    struct Options
    {
        /** Compare cached words against the backing store. */
        bool checkData = true;

        /** panic() on the first violation (stress CLI); with this
         *  off, violations are recorded for the tests to inspect. */
        bool failFast = false;

        /** Cap on recorded violations when failFast is off. */
        std::size_t maxViolations = 64;
    };

    /** Installs itself on @p sys's probe stream. */
    CoherenceChecker(System &sys, Options opts);
    explicit CoherenceChecker(System &sys);

    /** Uninstalls itself. */
    ~CoherenceChecker();

    CoherenceChecker(const CoherenceChecker &) = delete;
    CoherenceChecker &operator=(const CoherenceChecker &) = delete;

    // --- Probe ------------------------------------------------------------
    bool sequentialOnly() const override { return true; }
    void onDirState(NodeId, Addr block, std::uint64_t, NodeId,
                    bool) override {
        checkBlock(block);
    }
    void onSlcState(NodeId, Addr block, SlcLineState) override {
        checkBlock(block);
    }
    void onMsgRecv(NodeId, NodeId, unsigned, MsgClass,
                   std::uint64_t) override {
        ++messages;
    }

    /**
     * Final full sweep (checkQuiescent) while cached copies and
     * memory are still comparable, then retire the data-value check:
     * the flush pushes buffered write-cache words into the store, so
     * a stale-but-legal SHARED copy elsewhere (its word was dirty in
     * the writer's write cache, unobservable by a data-race-free
     * program) would otherwise be flagged against post-flush memory.
     */
    void onBeforeFunctionalFlush() override;

    // --- explicit sweeps ---------------------------------------------------
    /** Validate one block now (skipped if mid-transaction). */
    void checkBlock(Addr block);

    /** Validate every block any directory knows about. */
    void checkAll();

    /**
     * Drain-time check: the protocol must be fully quiescent (no
     * transactions, no buffered write-class operations, no held
     * locks) and every block must satisfy the stable invariants.
     * Call after System::run() returns.
     */
    void checkQuiescent();

    // --- results -----------------------------------------------------------
    /** Block validations actually performed (not skipped). */
    std::uint64_t checksRun() const { return checks; }

    /** Protocol messages observed in flight. */
    std::uint64_t messagesObserved() const { return messages; }

    std::uint64_t violationCount() const { return violationTotal; }

    /** Recorded violation descriptions (failFast off). */
    const std::vector<std::string> &violations() const {
        return violations_;
    }

  private:
    void fail(Addr block, const std::string &what);

    System &sys;
    Options opts;
    std::uint64_t checks = 0;
    std::uint64_t messages = 0;
    std::uint64_t violationTotal = 0;
    /// Cleared by the functional flush: memory no longer reflects
    /// what the protocol has performed.
    bool dataComparable = true;
    std::vector<std::string> violations_;
};

} // namespace cpx

#endif // CPX_CHECK_CHECKER_HH
