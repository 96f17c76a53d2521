#include "proto/directory.hh"

#include "mem/backing_store.hh"
#include "proto/messenger.hh"
#include "proto/slc.hh"
#include "sim/logging.hh"

namespace cpx
{

DirectoryController::DirectoryController(NodeId node, Fabric &f)
    : self(node), fabric(f), params(f.params()),
      scfg(params.directory, params.numProcs)
{
}

// --------------------------------------------------------------------------
// Request entry points: everything funnels through the per-block queue.
// --------------------------------------------------------------------------

void
DirectoryController::onReadReq(Addr block, NodeId from, bool prefetch)
{
    ++statReads;
    enqueue(block, Queued{prefetch ? TxnKind::Prefetch : TxnKind::Read,
                          from, 0, {}});
}

void
DirectoryController::onWriteReq(Addr block, NodeId from)
{
    ++statWrites;
    enqueue(block, Queued{TxnKind::WriteMiss, from, 0, {}});
}

void
DirectoryController::onUpgradeReq(Addr block, NodeId from)
{
    ++statUpgrades;
    enqueue(block, Queued{TxnKind::Upgrade, from, 0, {}});
}

void
DirectoryController::onWriteBack(Addr block, NodeId from)
{
    ++statWritebacks;
    enqueue(block, Queued{TxnKind::WriteBack, from, 0, {}});
}

void
DirectoryController::onUpdateReq(Addr block, NodeId from,
                                 std::uint32_t dirty_mask,
                                 std::vector<std::uint32_t> words)
{
    enqueue(block, Queued{TxnKind::Update, from, dirty_mask,
                          std::move(words)});
}

void
DirectoryController::enqueue(Addr block, Queued req)
{
    Entry &e = entries[block];
    req.enqueuedAt = fabric.eq().now();
    e.queue.push_back(std::move(req));
    if (!e.inService)
        startNext(block);
}

void
DirectoryController::startNext(Addr block)
{
    Entry &e = entries[block];
    if (e.queue.empty())
        return;
    e.inService = true;
    Queued req = std::move(e.queue.front());
    e.queue.pop_front();
    e.svc = DirService{.enqueuedAt = req.enqueuedAt,
                       .dequeuedAt = fabric.eq().now(),
                       .from = req.from,
                       .kind = req.kind};
    // The directory state lives in main memory: one memory access
    // before the request can be acted upon.
    fabric.eq().scheduleIn(params.memAccessLatency,
                           [this, block, req = std::move(req)] {
        process(block, req);
    });
}

void
DirectoryController::process(Addr block, const Queued &req)
{
    Entry &e = entries[block];
    e.svc.actionAt = fabric.eq().now();
    CPX_TRACE("Dir",
              "h%u blk=%llx kind=%d from=%u mod=%d owner=%u pres=%llx",
              self, (unsigned long long)block, (int)req.kind, req.from,
              e.modified, e.owner,
              (unsigned long long)e.sharers.expand(scfg).low64());
    switch (req.kind) {
      case TxnKind::Read:
      case TxnKind::Prefetch:
        processRead(block, e, req);
        break;
      case TxnKind::WriteMiss:
        processWrite(block, e, req);
        break;
      case TxnKind::Upgrade:
        processUpgrade(block, e, req);
        break;
      case TxnKind::WriteBack:
        processWriteBack(block, e, req);
        break;
      case TxnKind::Update:
        processUpdate(block, e, req);
        break;
    }
}

void
DirectoryController::finish(Addr block, Entry &e)
{
    CPX_PROBE(fabric, onDirServiceDone, self, block, e.svc,
              fabric.eq().now());
    e.inService = false;
    e.txn.reset();
    // Emit before startNext(): probes see the stable window
    // between transactions (startNext marks the block in service
    // again, which makes the checker skip it).
    CPX_PROBE(fabric, onDirState, self, block,
              e.sharers.expand(scfg).low64(), e.owner, e.modified);
    if (!e.queue.empty())
        startNext(block);
}

// --------------------------------------------------------------------------
// Read misses (and prefetches)
// --------------------------------------------------------------------------

void
DirectoryController::processRead(Addr block, Entry &e, const Queued &req)
{
    const NodeId from = req.from;

    if (!e.modified) {
        if (e.migratory && params.protocol.migratory) {
            if (e.sharers.empty(scfg)) {
                // Migratory block with no cached copy: hand out an
                // exclusive copy straight away so the expected write
                // hits DIRTY (this is also how P+M realizes
                // hardware read-exclusive prefetching).
                e.modified = true;
                e.owner = from;
                e.sharers.setOnly(scfg, from);
                sendReply(block, from, ReplyKind::DataExclusive,
                          msg_bytes::block(params.blockBytes));
                finish(block, e);
                return;
            }
            // Readers are accumulating on a clean migratory block:
            // the access pattern changed — disable the optimization.
            e.migratory = false;
            ++statMigDemote;
        }
        switch (e.sharers.add(scfg, from)) {
          case SharerSet::AddOutcome::NeedsEviction: {
            // Dir_i_B pointer eviction: invalidate the oldest
            // pointed-to sharer, then grant once its ack frees the
            // slot. The block stays in service meanwhile.
            ++statPtrEvict;
            NodeId victim = e.sharers.victim(scfg);
            e.txn = Txn{.kind = TxnKind::Read,
                        .requester = from,
                        .evicting = true,
                        .pendingAcks = 1};
            e.svc.fanoutAt = fabric.eq().now();
            sendInvalidate(block, victim);
            return;
          }
          case SharerSet::AddOutcome::WentBroadcast:
            ++statOverflowBcast;
            break;
          default:
            break;
        }
        sendReply(block, from, ReplyKind::DataShared,
                  msg_bytes::block(params.blockBytes));
        finish(block, e);
        return;
    }

    // MODIFIED at some owner.
    if (e.owner == from) {
        // The owner lost the line through a replacement whose
        // write-back is still in flight; re-grant and remember to
        // drop that stale write-back.
        ++e.staleWbExpected;
        sendReply(block, from, ReplyKind::DataExclusive,
                  msg_bytes::block(params.blockBytes));
        finish(block, e);
        return;
    }

    bool handoff = e.migratory && params.protocol.migratory;
    e.txn = Txn{.kind = TxnKind::Read,
                .requester = from,
                .fetchInv = handoff};
    e.svc.fetch = true;
    sendFetch(block, e.owner, handoff);
}

// --------------------------------------------------------------------------
// Ownership requests
// --------------------------------------------------------------------------

void
DirectoryController::detectMigratoryOnWrite(Entry &e, NodeId from)
{
    if (!params.protocol.migratory || params.protocol.compUpdate)
        return;  // CW+M uses the probe heuristic instead (§3.4)

    NodeMask others = e.sharers.expand(scfg);
    others.clear(from);
    if (e.migratory) {
        // An ownership request with several other sharers means the
        // block stopped behaving migratorily.
        if (others.count() > 1) {
            e.migratory = false;
            ++statMigDemote;
        }
        return;
    }
    // Classic detection [2,12]: write by `from` when exactly one
    // other copy exists and it belongs to the previous writer. The
    // set must be exact — an over-approximated (broadcast/coarse)
    // set cannot prove the single-copy pattern.
    if (e.lastWriter != invalidNode && e.lastWriter != from &&
        e.sharers.exact(scfg) &&
        others == NodeMask::single(e.lastWriter)) {
        e.migratory = true;
        ++statMigDetect;
    }
}

void
DirectoryController::processWrite(Addr block, Entry &e, const Queued &req)
{
    const NodeId from = req.from;

    if (e.modified) {
        if (e.owner == from) {
            // Write-back in flight (see processRead); re-grant.
            ++e.staleWbExpected;
            e.lastWriter = from;
            sendReply(block, from, ReplyKind::DataExclusive,
                      msg_bytes::block(params.blockBytes));
            finish(block, e);
            return;
        }
        e.txn = Txn{.kind = TxnKind::WriteMiss,
                    .requester = from,
                    .fetchInv = true};
        e.svc.fetch = true;
        sendFetch(block, e.owner, true);
        return;
    }

    detectMigratoryOnWrite(e, from);

    NodeMask others = e.sharers.expand(scfg);
    others.clear(from);
    if (others.none()) {
        e.modified = true;
        e.owner = from;
        e.sharers.setOnly(scfg, from);
        e.lastWriter = from;
        sendReply(block, from, ReplyKind::DataExclusive,
                  msg_bytes::block(params.blockBytes));
        finish(block, e);
        return;
    }

    e.txn = Txn{.kind = TxnKind::WriteMiss,
                .requester = from,
                .pendingAcks = others.count()};
    e.svc.fanoutAt = fabric.eq().now();
    if (!e.sharers.exact(scfg))
        e.svc.imprecise = true;
    others.forEach([&](NodeId j) { sendInvalidate(block, j); });
}

void
DirectoryController::processUpgrade(Addr block, Entry &e,
                                    const Queued &req)
{
    const NodeId from = req.from;

    if (e.modified) {
        if (e.owner == from) {
            // Redundant upgrade (should not normally happen).
            sendReply(block, from, ReplyKind::UpgradeAck,
                      msg_bytes::control);
            finish(block, e);
            return;
        }
        // The requester's SHARED copy was invalidated by an earlier
        // transaction; it now needs data as well as ownership.
        e.txn = Txn{.kind = TxnKind::WriteMiss,
                    .requester = from,
                    .fetchInv = true};
        e.svc.fetch = true;
        sendFetch(block, e.owner, true);
        return;
    }

    if (!e.sharers.preciseContains(scfg, from)) {
        // The requester's SHARED copy is unprovable — either a
        // racing invalidation pruned it, or the representation
        // (broadcast / coarse-vector) cannot name members. Serve as
        // a write miss so data travels with the ownership grant.
        processWrite(block, e,
                     Queued{TxnKind::WriteMiss, from, 0, {}});
        return;
    }

    detectMigratoryOnWrite(e, from);

    NodeMask others = e.sharers.expand(scfg);
    others.clear(from);
    if (others.none()) {
        e.modified = true;
        e.owner = from;
        e.sharers.setOnly(scfg, from);
        e.lastWriter = from;
        sendReply(block, from, ReplyKind::UpgradeAck,
                  msg_bytes::control);
        finish(block, e);
        return;
    }

    e.txn = Txn{.kind = TxnKind::Upgrade,
                .requester = from,
                .pendingAcks = others.count()};
    e.svc.fanoutAt = fabric.eq().now();
    if (!e.sharers.exact(scfg))
        e.svc.imprecise = true;
    others.forEach([&](NodeId j) { sendInvalidate(block, j); });
}

void
DirectoryController::onInvAck(Addr block, NodeId from)
{
    Entry &e = entries[block];
    if (!e.txn)
        panic("stray invalidation ack for block %llx from %u",
              static_cast<unsigned long long>(block), from);
    e.sharers.remove(scfg, from);
    if (--e.txn->pendingAcks == 0) {
        e.svc.lastRespAt = fabric.eq().now();
        // Final ack: one memory access to update the directory state
        // before the grant leaves.
        fabric.eq().scheduleIn(params.memAccessLatency, [this, block] {
            Entry &entry = entries[block];
            if (entry.txn->evicting)
                completeEvictedRead(block, entry);
            else
                completeOwnership(block, entry);
        });
    }
}

void
DirectoryController::completeEvictedRead(Addr block, Entry &e)
{
    Txn &txn = *e.txn;
    // The victim's ack freed a pointer; this add must fit.
    if (e.sharers.add(scfg, txn.requester) !=
        SharerSet::AddOutcome::Added)
        panic("pointer eviction for block %llx freed no slot",
              static_cast<unsigned long long>(block));
    sendReply(block, txn.requester, ReplyKind::DataShared,
              msg_bytes::block(params.blockBytes));
    finish(block, e);
}

void
DirectoryController::completeOwnership(Addr block, Entry &e)
{
    Txn &txn = *e.txn;
    e.modified = true;
    e.owner = txn.requester;
    e.sharers.setOnly(scfg, txn.requester);
    e.lastWriter = txn.requester;
    if (txn.kind == TxnKind::Upgrade) {
        sendReply(block, txn.requester, ReplyKind::UpgradeAck,
                  msg_bytes::control);
    } else {
        sendReply(block, txn.requester, ReplyKind::DataExclusive,
                  msg_bytes::block(params.blockBytes));
    }
    finish(block, e);
}

// --------------------------------------------------------------------------
// Fetch responses (MODIFIED block recalled from its owner)
// --------------------------------------------------------------------------

void
DirectoryController::onFetchResp(Addr block, NodeId from,
                                 bool did_modify, bool was_present)
{
    fabric.eq().scheduleIn(params.memAccessLatency,
                           [this, block, from, did_modify,
                            was_present] {
        Entry &e = entries[block];
        if (!e.txn)
            panic("stray fetch response for block %llx",
                  static_cast<unsigned long long>(block));
        Txn &txn = *e.txn;
        const NodeId req = txn.requester;

        switch (txn.kind) {
          case TxnKind::Read:
            if (txn.fetchInv) {
                // Migratory handoff path. If the previous keeper
                // never wrote the block, the pattern is not
                // migratory after all: demote.
                if (was_present && !did_modify && e.migratory) {
                    e.migratory = false;
                    ++statMigDemote;
                }
                if (e.migratory && params.protocol.migratory) {
                    e.owner = req;
                    e.sharers.setOnly(scfg, req);
                    // stays modified: exclusive handoff
                    sendReply(block, req, ReplyKind::DataExclusive,
                              msg_bytes::block(params.blockBytes));
                } else {
                    e.modified = false;
                    e.owner = invalidNode;
                    e.sharers.setOnly(scfg, req);
                    sendReply(block, req, ReplyKind::DataShared,
                              msg_bytes::block(params.blockBytes));
                }
            } else {
                // Ordinary downgrade: previous owner keeps a SHARED
                // copy (unless its line was already gone). Two
                // members always fit: System validation requires at
                // least two limited pointers.
                e.modified = false;
                NodeId prev_owner = e.owner;
                e.owner = invalidNode;
                e.sharers.setOnly(scfg, req);
                if (was_present)
                    e.sharers.add(scfg, prev_owner);
                sendReply(block, req, ReplyKind::DataShared,
                          msg_bytes::block(params.blockBytes));
            }
            break;

          case TxnKind::WriteMiss:
          case TxnKind::Upgrade:
            e.modified = true;
            e.owner = req;
            e.sharers.setOnly(scfg, req);
            e.lastWriter = req;
            sendReply(block, req, ReplyKind::DataExclusive,
                      msg_bytes::block(params.blockBytes));
            break;

          case TxnKind::Update:
            // CW flush to a block another cache held exclusively
            // (a migratory block under CW+M): the keeper was
            // invalidated and its data written back; now apply the
            // combined write on top.
            applyUpdateToMemory(block, txn.dirtyMask, txn.words);
            e.modified = false;
            e.owner = invalidNode;
            e.sharers.clearAll();
            e.lastUpdater = req;
            sendReply(block, req, ReplyKind::UpdateDone,
                      msg_bytes::control);
            break;

          default:
            panic("fetch response in unexpected transaction kind");
        }
        (void)from;
        finish(block, e);
    });
}

// --------------------------------------------------------------------------
// Write-backs
// --------------------------------------------------------------------------

void
DirectoryController::processWriteBack(Addr block, Entry &e,
                                      const Queued &req)
{
    if (e.modified && e.owner == req.from) {
        if (e.staleWbExpected > 0) {
            // This write-back was overtaken by a re-fetch from the
            // same node; the newer exclusive copy wins.
            --e.staleWbExpected;
        } else {
            e.modified = false;
            e.owner = invalidNode;
            e.sharers.clearAll();
        }
    }
    // Otherwise the write-back is stale (the block moved on while
    // the message was in flight); memory is functionally current.
    finish(block, e);
}

// --------------------------------------------------------------------------
// CW: combined-write updates
// --------------------------------------------------------------------------

void
DirectoryController::applyUpdateToMemory(
    Addr block, std::uint32_t mask,
    const std::vector<std::uint32_t> &words)
{
    BackingStore &store = fabric.store();
    for (unsigned w = 0; w < words.size(); ++w)
        if (mask & (1u << w))
            store.write32(block + Addr(w) * wordBytes, words[w]);
}

void
DirectoryController::processUpdate(Addr block, Entry &e,
                                   const Queued &req)
{
    const NodeId from = req.from;

    if (e.modified) {
        if (e.owner == from) {
            // The writer holds the block exclusively (migratory
            // grant): memory stays stale until write-back, but the
            // owner's cache is authoritative — nothing to propagate.
            e.lastUpdater = from;
            sendReply(block, from, ReplyKind::UpdateDone,
                      msg_bytes::control);
            finish(block, e);
            return;
        }
        // Another cache holds it exclusively: recall it, then the
        // update is absorbed by memory.
        e.txn = Txn{.kind = TxnKind::Update,
                    .requester = from,
                    .fetchInv = true,
                    .dirtyMask = req.dirtyMask,
                    .words = req.words};
        e.svc.fetch = true;
        sendFetch(block, e.owner, true);
        return;
    }

    applyUpdateToMemory(block, req.dirtyMask, req.words);

    // §3.4 heuristic: consecutive updates by different processors
    // with multiple cached copies trigger a migratory probe.
    NodeMask present = e.sharers.expand(scfg);
    bool may_probe = params.protocol.migratory &&
                     params.protocol.compUpdate && !e.migratory &&
                     present.count() > 1 &&
                     e.lastUpdater != invalidNode &&
                     e.lastUpdater != from;
    if (may_probe) {
        ++statProbes;
        e.txn = Txn{.kind = TxnKind::Update,
                    .requester = from,
                    .pendingAcks = present.count(),
                    .dirtyMask = req.dirtyMask,
                    .words = req.words,
                    .probing = true};
        e.svc.fanoutAt = fabric.eq().now();
        if (!e.sharers.exact(scfg))
            e.svc.imprecise = true;
        present.forEach([&](NodeId j) { sendMigProbe(block, j); });
        return;
    }

    NodeMask targets = present;
    targets.clear(from);
    if (targets.none()) {
        e.lastUpdater = from;
        sendReply(block, from, ReplyKind::UpdateDone,
                  msg_bytes::control);
        finish(block, e);
        return;
    }

    e.txn = Txn{.kind = TxnKind::Update,
                .requester = from,
                .pendingAcks = targets.count(),
                .dirtyMask = req.dirtyMask,
                .words = req.words};
    e.svc.fanoutAt = fabric.eq().now();
    if (!e.sharers.exact(scfg))
        e.svc.imprecise = true;
    forwardUpdate(block, e, targets);
}

void
DirectoryController::forwardUpdate(Addr block, Entry &e,
                                   const NodeMask &targets)
{
    targets.forEach([&](NodeId j) {
        ++statUpdates;
        sendUpdateMsg(block, j, e.txn->dirtyMask, e.txn->words,
                      e.txn->requester);
    });
}

void
DirectoryController::onUpdateAck(Addr block, NodeId from,
                                 bool invalidated)
{
    Entry &e = entries[block];
    if (!e.txn)
        panic("stray update ack for block %llx",
              static_cast<unsigned long long>(block));
    if (invalidated)
        e.sharers.remove(scfg, from);
    if (--e.txn->pendingAcks == 0) {
        e.svc.lastRespAt = fabric.eq().now();
        fabric.eq().scheduleIn(params.memAccessLatency, [this, block] {
            Entry &entry = entries[block];
            entry.lastUpdater = entry.txn->requester;
            sendReply(block, entry.txn->requester,
                      ReplyKind::UpdateDone, msg_bytes::control);
            finish(block, entry);
        });
    }
}

void
DirectoryController::onMigProbeResp(Addr block, NodeId from,
                                    bool gave_up)
{
    Entry &e = entries[block];
    if (!e.txn || !e.txn->probing)
        panic("stray migratory probe response for block %llx",
              static_cast<unsigned long long>(block));
    Txn &txn = *e.txn;
    if (gave_up) {
        e.sharers.remove(scfg, from);
    } else {
        txn.allGaveUp = false;
        txn.keepers.set(from);
    }
    if (--txn.pendingAcks > 0)
        return;
    // Last probe response; overwritten by the final update ack if a
    // forwarding round follows.
    e.svc.lastRespAt = fabric.eq().now();

    // All probe responses are in.
    if (txn.allGaveUp && params.protocol.migratory) {
        e.migratory = true;
        ++statMigDetect;
    }
    txn.probing = false;
    NodeMask targets = txn.keepers;
    targets.clear(txn.requester);
    if (targets.none()) {
        e.lastUpdater = txn.requester;
        sendReply(block, txn.requester, ReplyKind::UpdateDone,
                  msg_bytes::control);
        finish(block, e);
        return;
    }
    txn.pendingAcks = targets.count();
    forwardUpdate(block, e, targets);
}

// --------------------------------------------------------------------------
// Message emission
// --------------------------------------------------------------------------

void
DirectoryController::sendReply(Addr block, NodeId to, ReplyKind kind,
                               unsigned payload)
{
    MsgClass klass = payload > 0 ? MsgClass::Data
                                 : MsgClass::Coherence;
    sendProtocolMessage(fabric, self, to, payload,
                        [this, block, to, kind] {
        fabric.slc(to).onReply(block, kind);
    }, klass);
}

void
DirectoryController::sendInvalidate(Addr block, NodeId to)
{
    ++statInvals;
    sendProtocolMessage(fabric, self, to, msg_bytes::control,
                        [this, block, to] {
        fabric.slc(to).onInvalidate(block, self);
    }, MsgClass::Coherence);
}

void
DirectoryController::sendFetch(Addr block, NodeId to, bool invalidate)
{
    ++statFetches;
    sendProtocolMessage(fabric, self, to, msg_bytes::control,
                        [this, block, to, invalidate] {
        fabric.slc(to).onFetch(block, self, invalidate);
    }, MsgClass::Coherence);
}

void
DirectoryController::sendUpdateMsg(Addr block, NodeId to,
                                   std::uint32_t mask,
                                   const std::vector<std::uint32_t> &words,
                                   NodeId writer)
{
    unsigned dirty = static_cast<unsigned>(__builtin_popcount(mask));
    sendProtocolMessage(fabric, self, to, msg_bytes::update(dirty),
                        [this, block, to, mask, words, writer] {
        fabric.slc(to).onUpdate(block, self, mask, words, writer);
    }, MsgClass::Update);
}

void
DirectoryController::sendMigProbe(Addr block, NodeId to)
{
    sendProtocolMessage(fabric, self, to, msg_bytes::control,
                        [this, block, to] {
        fabric.slc(to).onMigProbe(block, self);
    }, MsgClass::Coherence);
}

// --------------------------------------------------------------------------
// Inspection
// --------------------------------------------------------------------------

DirectoryController::Snapshot
DirectoryController::inspect(Addr block) const
{
    Snapshot s;
    auto it = entries.find(block);
    if (it == entries.end())
        return s;
    const Entry &e = it->second;
    s.modified = e.modified;
    s.owner = e.owner;
    s.sharers = e.sharers.expand(scfg);
    s.presence = s.sharers.low64();
    s.exact = e.sharers.exact(scfg);
    s.migratory = e.migratory;
    s.inService = e.inService;
    return s;
}

std::size_t
DirectoryController::blocksInService() const
{
    std::size_t n = 0;
    for (const auto &[addr, e] : entries)
        if (e.inService)
            ++n;
    return n;
}

std::vector<Addr>
DirectoryController::knownBlocks() const
{
    std::vector<Addr> blocks;
    blocks.reserve(entries.size());
    for (const auto &[addr, e] : entries)
        blocks.push_back(addr);
    return blocks;
}

std::vector<DirectoryController::ServiceDump>
DirectoryController::inServiceDump() const
{
    std::vector<ServiceDump> dumps;
    for (const auto &[addr, e] : entries) {
        if (!e.inService)
            continue;
        ServiceDump d;
        d.block = addr;
        if (e.txn) {
            d.requester = e.txn->requester;
            d.pendingAcks = e.txn->pendingAcks;
        }
        d.queueDepth = e.queue.size();
        d.modified = e.modified;
        d.owner = e.owner;
        d.presence = e.sharers.expand(scfg).low64();
        dumps.push_back(d);
    }
    return dumps;
}

} // namespace cpx
