#include "check/checker.hh"

#include <cinttypes>
#include <cstdio>

#include "proto/directory.hh"
#include "proto/slc.hh"
#include "sim/logging.hh"

namespace cpx
{

CoherenceChecker::CoherenceChecker(System &sys_, Options opts_)
    : sys(sys_), opts(opts_)
{
    sys.installProbe(this);
}

CoherenceChecker::CoherenceChecker(System &sys_)
    : CoherenceChecker(sys_, Options())
{
}

CoherenceChecker::~CoherenceChecker()
{
    sys.removeProbe(this);
}

void
CoherenceChecker::checkBlock(Addr block)
{
    const MachineParams &params = sys.params();
    const NodeId home = sys.amap().home(block);
    const auto snap = sys.dir(home).inspect(block);

    // A block mid-transaction is allowed to disagree with its
    // directory entry: that transient window is the protocol doing
    // its job. Only stable blocks are validated.
    if (snap.inService)
        return;
    for (NodeId n = 0; n < params.numProcs; ++n)
        if (sys.slc(n).hasPendingTransaction(block))
            return;

    ++checks;

    const unsigned words = sys.amap().wordsPerBlock();

    if (snap.modified) {
        // SWMR: exactly one copy, and the directory knows whose.
        if (snap.owner == invalidNode || snap.owner >= params.numProcs) {
            fail(block, "MODIFIED entry without a valid owner");
            return;
        }
        // An exact sharer set must name exactly the owner; an
        // over-approximating one (broadcast / coarse-vector) must at
        // least contain it.
        if (snap.exact
                ? snap.sharers != NodeMask::single(snap.owner)
                : !snap.sharers.test(snap.owner)) {
            char buf[112];
            std::snprintf(buf, sizeof(buf),
                          "MODIFIED sharer set (%u members, low64 "
                          "%#" PRIx64 ") inconsistent with owner %u",
                          snap.sharers.count(), snap.presence,
                          unsigned(snap.owner));
            fail(block, buf);
        }
        for (NodeId n = 0; n < params.numProcs; ++n) {
            const SlcController::Line *l = sys.slc(n).findLine(block);
            if (!l || !l->valid)
                continue;
            if (n != snap.owner) {
                char buf[96];
                std::snprintf(buf, sizeof(buf),
                              "MODIFIED with owner %u but node %u "
                              "also caches a copy",
                              unsigned(snap.owner), unsigned(n));
                fail(block, buf);
            } else if (l->state != SlcController::LineState::Dirty) {
                // The owner's line may legally be *absent* (its
                // replacement write-back is in flight and the home
                // has not serviced it yet), but while resident it
                // must be Dirty.
                fail(block,
                     "MODIFIED owner holds the line in Shared state");
            }
        }
        return;
    }

    // CLEAN: memory is the owner; copies are read-only and current.
    if (snap.owner != invalidNode) {
        char buf[64];
        std::snprintf(buf, sizeof(buf),
                      "CLEAN entry records owner %u",
                      unsigned(snap.owner));
        fail(block, buf);
    }
    for (NodeId n = 0; n < params.numProcs; ++n) {
        const SlcController &slc = sys.slc(n);
        const SlcController::Line *l = slc.findLine(block);
        if (!l || !l->valid)
            continue;
        if (l->state == SlcController::LineState::Dirty) {
            char buf[64];
            std::snprintf(buf, sizeof(buf),
                          "CLEAN block is Dirty at node %u",
                          unsigned(n));
            fail(block, buf);
        }
        if (!snap.sharers.test(n)) {
            // The sharer set may be a superset of the holders
            // (SHARED replacements are silent; broadcast and
            // coarse-vector sets over-approximate by design) but
            // never a subset.
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "node %u caches the block but the sharer "
                          "set (low64 %#" PRIx64 ") omits it",
                          unsigned(n), snap.presence);
            fail(block, buf);
        }
        if (!opts.checkData || !dataComparable ||
            l->data.size() < words)
            continue;
        for (unsigned w = 0; w < words; ++w) {
            const Addr wa = block + Addr(w) * wordBytes;
            // CW applies a node's own writes to its shared copy in
            // place; until the combined write propagates, those
            // words legitimately lead memory. Mask them.
            std::uint32_t buffered;
            if (slc.writeCacheUnit().readWord(wa, buffered))
                continue;
            const std::uint32_t mem = sys.store().read32(wa);
            if (l->data[w] != mem) {
                char buf[112];
                std::snprintf(buf, sizeof(buf),
                              "CLEAN copy at node %u word %u is "
                              "%#x, memory has %#x",
                              unsigned(n), w, l->data[w], mem);
                fail(block, buf);
            }
        }
    }
}

void
CoherenceChecker::onBeforeFunctionalFlush()
{
    // Last chance to compare cached data against the store: run the
    // drain-time sweep now. Afterwards the flush writes buffered
    // write-cache words straight into memory, so a stale-but-legal
    // SHARED copy at another node (invisible to a data-race-free
    // program until the combined write propagates) would no longer
    // match — retire the data comparison, keep the structural
    // invariants.
    checkQuiescent();
    dataComparable = false;
}

void
CoherenceChecker::checkAll()
{
    for (NodeId n = 0; n < sys.params().numProcs; ++n)
        for (Addr block : sys.dir(n).knownBlocks())
            checkBlock(block);
}

void
CoherenceChecker::checkQuiescent()
{
    if (!sys.quiescent())
        fail(0, "protocol not quiescent at drain (transactions, "
                "buffered writes or locks left over)");
    checkAll();
}

void
CoherenceChecker::fail(Addr block, const std::string &what)
{
    ++violationTotal;

    char head[64];
    std::snprintf(head, sizeof(head),
                  "coherence violation @ t=%" PRIu64 " blk %#" PRIx64
                  ": ", sys.eq().now(), block);
    std::string msg = std::string(head) + what;

    if (opts.failFast)
        panic("%s", msg.c_str());
    if (violations_.size() < opts.maxViolations)
        violations_.push_back(std::move(msg));
}

} // namespace cpx
