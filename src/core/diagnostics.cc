#include "core/diagnostics.hh"

#include <cinttypes>
#include <cstdio>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace cpx
{

std::string
formatStallDiagnostics(System &sys)
{
    const MachineParams &params = sys.params();
    const Tick now = sys.simNow();
    std::string out;

    append(out,
           "=== protocol stall diagnostics @ tick %" PRIu64 " ===\n",
           now);
    append(out,
           "event queues   : %zu pending, %" PRIu64 " executed\n",
           sys.totalPending(), sys.totalEventsExecuted());
    append(out, "quiescent      : %s\n",
           sys.quiescent() ? "yes" : "NO");

    unsigned unfinished = 0;
    for (NodeId n = 0; n < params.numProcs; ++n)
        if (!sys.processor(n).finished())
            ++unfinished;
    append(out, "processors     : %u of %u still running\n",
           unfinished, params.numProcs);

    for (NodeId n = 0; n < params.numProcs; ++n) {
        const Processor &p = sys.processor(n);
        const SlcController &slc = sys.node(n).slc;
        const DirectoryController &dir = sys.node(n).dir;
        const LockManager &locks = sys.node(n).locks;

        auto slc_txns = slc.pendingTransactionDump();
        auto dir_blocks = dir.inServiceDump();
        auto held = locks.heldLockDump();

        bool quiet = p.finished() && slc_txns.empty() &&
                     dir_blocks.empty() && held.empty() &&
                     slc.pendingWriteClass() == 0;
        if (quiet)
            continue;

        append(out, "node %-2u %s at t=%" PRIu64
               "; reads %" PRIu64 " writes %" PRIu64
               " acquires %" PRIu64 "\n",
               n, p.finished() ? "finished" : "RUNNING ",
               p.finishTick(), p.sharedReads(), p.sharedWrites(),
               p.lockAcquires());
        append(out,
               "  slc: %zu txns, slwb %u/%u, write-class %u, "
               "wcache %u/%u\n",
               slc.pendingTransactions(), slc.slwbInUse(),
               params.slwbEntries, slc.pendingWriteClass(),
               slc.writeCacheUnit().occupancy(),
               slc.writeCacheUnit().capacity());
        for (const auto &t : slc_txns) {
            append(out,
                   "    blk %#" PRIx64 " %-9s since t=%" PRIu64
                   " (age %" PRIu64 ")\n",
                   t.block, t.kind, t.start, now - t.start);
        }
        if (!dir_blocks.empty()) {
            append(out, "  dir: %zu blocks in service\n",
                   dir_blocks.size());
            for (const auto &d : dir_blocks) {
                append(out,
                       "    blk %#" PRIx64 " requester %d acks %u "
                       "queued %zu | mod=%d owner=%d pres=%#" PRIx64
                       "\n",
                       d.block,
                       d.requester == invalidNode
                           ? -1
                           : static_cast<int>(d.requester),
                       d.pendingAcks, d.queueDepth, d.modified,
                       d.owner == invalidNode
                           ? -1
                           : static_cast<int>(d.owner),
                       d.presence);
            }
        }
        for (const auto &l : held) {
            append(out,
                   "  lock %#" PRIx64 " held by node %u, %zu "
                   "waiting\n",
                   l.addr, l.holder, l.waiters);
        }
    }
    // With a flight recorder installed, the last protocol events per
    // node usually point straight at the stalled transaction.
    if (const TraceSink *tracer = sys.tracer())
        out += tracer->formatTails();

    append(out, "=== end diagnostics ===\n");
    return out;
}

} // namespace cpx
