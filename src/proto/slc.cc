#include "proto/slc.hh"

#include "mem/backing_store.hh"
#include "obs/metrics.hh"
#include "proto/directory.hh"
#include "proto/messenger.hh"
#include "sim/logging.hh"

namespace cpx
{

namespace
{

/// Short tag for per-access debug tracing (Logger::enable("SLC")).
constexpr const char *traceTag = "SLC";

} // anonymous namespace

namespace
{

/// Window of recent demand misses used for zero-degree prefetch
/// usefulness detection (the hardware analog is the second per-line
/// bit of [3]; a small window is equivalent with an infinite SLC).
constexpr std::size_t recentMissWindow = 16;

} // anonymous namespace

SlcController::SlcController(NodeId node, Fabric &f, Flc &flc_ref)
    : self(node), fabric(f), params(f.params()), flc(flc_ref),
      tags(f.params().blockBytes,
           f.params().slcBytes
               ? f.params().slcBytes / f.params().blockBytes
               : 0),
      prefetcher(f.params()),
      writeCache(f.amap(), f.params().writeCacheBlocks)
{
}

// --------------------------------------------------------------------------
// Small helpers
// --------------------------------------------------------------------------

void
SlcController::notifyProbes(Addr block)
{
    CPX_PROBE(fabric, onSlcState, self, block, [this, block] {
        const Line *line = tags.find(block);
        return !line ? SlcLineState::Invalid
               : line->state == LineState::Dirty ? SlcLineState::Dirty
                                                 : SlcLineState::Shared;
    }());
}

void
SlcController::dropPrefetch(Addr block)
{
    ++statPrefetchDrops;
    CPX_PROBE(fabric, onPrefetchDrop, self, block);
}

void
SlcController::withPort(Callback fn)
{
    Tick start = port.reserve(fabric.eq().now(),
                              params.slcAccessLatency);
    fabric.eq().schedule(start + params.slcAccessLatency,
                         std::move(fn));
}

void
SlcController::acquireSlwb(Callback fn)
{
    if (slwbUsed < params.slwbEntries)
        fn();
    else
        slwbWaiters.push_back(std::move(fn));
}

void
SlcController::releaseSlwb()
{
    if (slwbUsed == 0)
        panic("SLWB underflow at node %u", self);
    --slwbUsed;
    if (!slwbWaiters.empty() && slwbUsed < params.slwbEntries) {
        Callback fn = std::move(slwbWaiters.front());
        slwbWaiters.pop_front();
        fn();
    }
}

SlcController::Txn &
SlcController::createTxn(Addr block, TxnKind kind)
{
    auto [it, inserted] = txns.try_emplace(block);
    if (!inserted)
        panic("duplicate transaction for block %llx at node %u",
              static_cast<unsigned long long>(block), self);
    it->second.kind = kind;
    it->second.start = fabric.eq().now();
    ++slwbUsed;
    CPX_PROBE(fabric, onTxnStart, self, block, kind);
    return it->second;
}

void
SlcController::sendToHome(Addr block, unsigned payload,
                          std::function<void(DirectoryController &)> fn,
                          MsgClass klass)
{
    NodeId home = fabric.amap().home(block);
    sendProtocolMessage(fabric, self, home, payload,
                        [this, home, fn = std::move(fn)] {
        fn(fabric.dir(home));
    }, klass);
}

void
SlcController::writeLineToStore(Addr block, const Line &line)
{
    BackingStore &store = fabric.store();
    for (unsigned w = 0; w < line.data.size(); ++w)
        store.write32(block + Addr(w) * wordBytes, line.data[w]);
}

void
SlcController::removeLine(Addr block, RemovalCause cause)
{
    classifier.noteRemoval(block, cause);
    tags.erase(block);
    flc.invalidate(block);
    notifyProbes(block);
}

void
SlcController::evictForFill(Addr block)
{
    auto [victim_addr, victim] = tags.victimFor(block);
    if (!victim)
        return;
    if (victim->state == LineState::Dirty) {
        // The data leaves with the write-back message; memory is
        // updated at injection (messages to one home arrive in send
        // order, so a later, newer write-back cannot be overwritten).
        writeLineToStore(victim_addr, *victim);
        // Write-backs are fire-and-forget: the home drops stale ones
        // (see DirectoryController::processWriteBack).
        NodeId from = self;
        sendToHome(victim_addr, msg_bytes::block(params.blockBytes),
                   [victim_addr, from](DirectoryController &dir) {
            dir.onWriteBack(victim_addr, from);
        }, MsgClass::Data);
    }
    removeLine(victim_addr, RemovalCause::Replacement);
}

void
SlcController::maybeFinishRelease()
{
    if (writeClassOutstanding != 0 || releaseWaiters.empty())
        return;
    std::vector<Callback> waiters = std::move(releaseWaiters);
    releaseWaiters.clear();
    for (Callback &cb : waiters)
        cb();
}

std::vector<SlcController::TxnDump>
SlcController::pendingTransactionDump() const
{
    std::vector<TxnDump> dumps;
    dumps.reserve(txns.size());
    for (const auto &[block, txn] : txns)
        dumps.push_back({block, txnKindName(txn.kind), txn.start});
    return dumps;
}

std::uint64_t
SlcController::totalReadMisses() const
{
    return readMissKind[0].value() + readMissKind[1].value() +
           readMissKind[2].value();
}

void
SlcController::registerMetrics(MetricRegistry &registry,
                               const std::string &prefix) const
{
    static const char *const missName[3] = {"cold", "coherence",
                                            "replacement"};
    for (unsigned k = 0; k < 3; ++k) {
        registry.addCounter(prefix + ".readMiss." + missName[k],
                            readMissKind[k]);
        registry.addCounter(prefix + ".writeMiss." + missName[k],
                            writeMissKind[k]);
    }
    registry.add(prefix + ".prefetch.issued",
                 [this] { return prefetcher.issued(); });
    registry.add(prefix + ".prefetch.useful",
                 [this] { return prefetcher.useful(); });
    registry.addCounter(prefix + ".prefetch.dropped",
                        statPrefetchDrops);
    registry.addCounter(prefix + ".writeCache.inserts",
                        writeCache.insertCount());
    registry.addCounter(prefix + ".writeCache.combines",
                        writeCache.combinedWrites());
    registry.addCounter(prefix + ".writeCache.flushes",
                        writeCache.flushCount());
}

// --------------------------------------------------------------------------
// Value resolution (data-carrying functional model)
// --------------------------------------------------------------------------

std::uint32_t
SlcController::read32Value(Addr a) const
{
    if (params.protocol.compUpdate) {
        std::uint32_t v;
        if (params.writeCacheEnabled && writeCache.readWord(a, v))
            return v;
        auto pit = pendingFlushes.find(tags.align(a));
        if (pit != pendingFlushes.end()) {
            unsigned w = fabric.amap().wordInBlock(a);
            for (auto r = pit->second.rbegin();
                 r != pit->second.rend(); ++r)
                if (r->dirtyMask & (1u << w))
                    return r->words[w];
        }
    }
    if (const Line *line = tags.find(a))
        return line->data[fabric.amap().wordInBlock(a)];
    return fabric.store().read32(a);
}

std::uint64_t
SlcController::read64Value(Addr a) const
{
    std::uint64_t lo = read32Value(a);
    std::uint64_t hi = read32Value(a + wordBytes);
    return lo | (hi << 32);
}

// --------------------------------------------------------------------------
// Processor-side: reads
// --------------------------------------------------------------------------

void
SlcController::readAccess(Addr a, Callback done)
{
    withPort([this, a, done = std::move(done)]() mutable {
        Addr block = tags.align(a);
        Line *line = tags.find(a);
        CPX_TRACE(traceTag, "n%u read a=%llx %s", self,
                  (unsigned long long)a,
                  line ? "hit" : (txns.count(block) ? "merge"
                                                    : "miss"));
        if (line) {
            ++statReadHits;
            line->compCounter = params.competitiveThreshold;
            if (line->prefetched) {
                line->prefetched = false;
                prefetcher.notifyUseful();
            }
            done();
            return;
        }

        if (params.protocol.compUpdate && params.writeCacheEnabled &&
            writeCache.contains(a)) {
            ++statWcReadHits;
            done();
            return;
        }

        auto it = txns.find(block);
        if (it != txns.end()) {
            Txn &txn = it->second;
            if (txn.kind == TxnKind::Update) {
                // An outstanding combined-write flush blocks a new
                // fetch of the same block; retry once it completes.
                txn.continuations.push_back(
                    [this, a, done = std::move(done)]() mutable {
                    readAccess(a, std::move(done));
                });
                return;
            }
            // Merge with the in-flight fetch. A demand read merging
            // with a prefetch counts as a useful prefetch [3] and as
            // a (latency-reduced) miss in the statistics.
            if (txn.kind == TxnKind::Prefetch && !txn.demandJoined) {
                txn.demandJoined = true;
                txn.start = fabric.eq().now();
                prefetcher.notifyUseful();
            }
            MissKind k = classifier.classify(block);
            ++readMissKind[static_cast<unsigned>(k)];
            txn.continuations.push_back(std::move(done));
            return;
        }

        // True demand miss.
        MissKind k = classifier.classify(block);
        ++readMissKind[static_cast<unsigned>(k)];

        bool prev_missed = false;
        for (Addr m : recentMisses)
            if (m + params.blockBytes == block)
                prev_missed = true;
        prefetcher.notifyDemandMiss(block, prev_missed);
        recentMisses.push_back(block);
        if (recentMisses.size() > recentMissWindow)
            recentMisses.pop_front();

        Txn &txn = createTxn(block, TxnKind::Read);
        txn.continuations.push_back(std::move(done));
        NodeId from = self;
        sendToHome(block, msg_bytes::control,
                   [block, from](DirectoryController &dir) {
            dir.onReadReq(block, from, false);
        });

        if (params.protocol.prefetch)
            issuePrefetches(block);
    });
}

void
SlcController::issuePrefetches(Addr demand_block)
{
    unsigned degree = prefetcher.degree();
    for (unsigned i = 1; i <= degree; ++i) {
        Addr pblock = demand_block + i * params.blockBytes;
        if (tags.find(pblock))
            continue;
        if (txns.count(pblock))
            continue;
        if (params.protocol.compUpdate && params.writeCacheEnabled &&
            (writeCache.contains(pblock) ||
             pendingFlushes.count(pblock)))
            continue;
        if (slwbUsed >= params.slwbEntries) {
            // No SLWB room: drop this and all remaining prefetches.
            dropPrefetch(pblock);
            break;
        }
        createTxn(pblock, TxnKind::Prefetch);
        prefetcher.notifyIssued();
        CPX_PROBE(fabric, onPrefetchIssue, self, pblock);
        NodeId from = self;
        sendToHome(pblock, msg_bytes::control,
                   [pblock, from](DirectoryController &dir) {
            dir.onReadReq(pblock, from, true);
        });
    }
}

// --------------------------------------------------------------------------
// Processor-side: writes
// --------------------------------------------------------------------------

void
SlcController::writeRC(Addr a, std::uint64_t value, unsigned bytes,
                       Callback retired)
{
    handleWrite(a, value, bytes, false, std::move(retired));
}

void
SlcController::writeSC(Addr a, std::uint64_t value, unsigned bytes,
                       Callback performed)
{
    handleWrite(a, value, bytes, true, std::move(performed));
}

void
SlcController::handleWrite(Addr a, std::uint64_t value, unsigned bytes,
                           bool sc, Callback done)
{
    if (bytes != wordBytes && bytes != 2 * wordBytes)
        panic("unsupported write size %u", bytes);
    if (fabric.amap().blockAddr(a) !=
        fabric.amap().blockAddr(a + bytes - 1))
        panic("write straddles a block boundary at %llx",
              static_cast<unsigned long long>(a));

    withPort([this, a, value, bytes, sc,
              done = std::move(done)]() mutable {
        Addr block = tags.align(a);
        unsigned first_word = fabric.amap().wordInBlock(a);
        unsigned nwords = bytes / wordBytes;
        auto word_value = [value](unsigned i) {
            return static_cast<std::uint32_t>(value >> (32 * i));
        };
        auto apply_to_line = [&](Line *line) {
            for (unsigned i = 0; i < nwords; ++i)
                line->data[first_word + i] = word_value(i);
        };
        auto record_pending = [&](Txn &txn) {
            for (unsigned i = 0; i < nwords; ++i)
                txn.pendingWrites.emplace_back(first_word + i,
                                               word_value(i));
        };

        Line *line = tags.find(a);
        CPX_TRACE(traceTag,
                  "n%u write a=%llx v=%llx line=%s txn=%d", self,
                  (unsigned long long)a, (unsigned long long)value,
                  !line ? "none"
                        : line->state == LineState::Dirty ? "dirty"
                                                          : "shared",
                  (int)txns.count(block));

        if (line && line->state == LineState::Dirty) {
            apply_to_line(line);
            line->locallyModified = true;
            line->compCounter = params.competitiveThreshold;
            notifyProbes(block);
            done();
            return;
        }

        if (params.protocol.compUpdate) {
            // CW: a resident SHARED copy is updated in place (§3.3).
            if (line) {
                apply_to_line(line);
                line->locallyModified = true;
                line->compCounter = params.competitiveThreshold;
            }
            if (params.writeCacheEnabled) {
                // The write lands in the write cache; no global
                // action until the block is victimized or released.
                for (unsigned i = 0; i < nwords; ++i) {
                    Addr wa = a + Addr(i) * wordBytes;
                    CPX_PROBE(fabric, onWcWrite, self, block,
                              writeCache.contains(wa));
                    WriteCacheFlush victim;
                    if (writeCache.writeWord(wa, word_value(i),
                                             victim)) {
                        startUpdateFlush(victim);
                    }
                }
            } else {
                // Plain competitive update [10]: the write's words
                // are sent to the home immediately, uncombined.
                WriteCacheFlush rec;
                rec.blockAddr = block;
                rec.words.assign(fabric.amap().wordsPerBlock(), 0);
                unsigned first_word = fabric.amap().wordInBlock(a);
                for (unsigned i = 0; i < nwords; ++i) {
                    rec.dirtyMask |= 1u << (first_word + i);
                    rec.words[first_word + i] = word_value(i);
                }
                startUpdateFlush(rec);
            }
            notifyProbes(block);
            done();
            return;
        }

        auto it = txns.find(block);
        if (it != txns.end()) {
            Txn &txn = it->second;
            switch (txn.kind) {
              case TxnKind::Read:
              case TxnKind::Prefetch:
                if (!txn.wantsWrite) {
                    txn.wantsWrite = true;
                    ++writeClassOutstanding;
                }
                if (txn.kind == TxnKind::Prefetch &&
                    !txn.demandJoined) {
                    txn.demandJoined = true;
                    prefetcher.notifyUseful();
                }
                record_pending(txn);
                if (sc)
                    txn.writeWaiters.push_back(std::move(done));
                else
                    done();
                return;
              case TxnKind::WriteMiss:
              case TxnKind::Upgrade:
                record_pending(txn);
                if (line)
                    apply_to_line(line);
                if (sc)
                    txn.writeWaiters.push_back(std::move(done));
                else
                    done();
                return;
              case TxnKind::Update:
              case TxnKind::WriteBack:  // home side only, never here
                panic("%s transaction outside CW mode",
                      txnKindName(txn.kind));
            }
        }

        // Both remaining paths create a new transaction and need a
        // free SLWB entry. If none is available, the write waits in
        // the FLWB and the whole decision is retried once an entry
        // frees — protocol state may have changed by then (the line
        // may be gone, or a demand read may have started a
        // transaction for this block to merge with), so the retry
        // re-enters handleWrite from scratch.
        if (slwbUsed >= params.slwbEntries) {
            slwbWaiters.push_back(
                [this, a, value, bytes, sc,
                 done = std::move(done)]() mutable {
                handleWrite(a, value, bytes, sc, std::move(done));
            });
            return;
        }

        if (line) {
            // SHARED: the copy is updated in place and an ownership
            // request enters the SLWB (§2).
            apply_to_line(line);
            line->locallyModified = true;
            ++writeClassOutstanding;
            Txn &txn = createTxn(block, TxnKind::Upgrade);
            record_pending(txn);
            if (sc)
                txn.writeWaiters.push_back(std::move(done));
            NodeId from = self;
            sendToHome(block, msg_bytes::control,
                       [block, from](DirectoryController &dir) {
                dir.onUpgradeReq(block, from);
            });
            if (!sc)
                done();
            return;
        }

        // Write miss: fetch the block with ownership (read-exclusive).
        MissKind k = classifier.classify(block);
        ++writeMissKind[static_cast<unsigned>(k)];
        ++writeClassOutstanding;
        Txn &txn = createTxn(block, TxnKind::WriteMiss);
        record_pending(txn);
        if (sc)
            txn.writeWaiters.push_back(std::move(done));
        NodeId from = self;
        sendToHome(block, msg_bytes::control,
                   [block, from](DirectoryController &dir) {
            dir.onWriteReq(block, from);
        });
        if (!sc)
            done();
    });
}

void
SlcController::startUpdateFlush(const WriteCacheFlush &rec)
{
    ++writeClassOutstanding;
    Addr block = rec.blockAddr;
    auto it = txns.find(block);
    if (it != txns.end()) {
        // An earlier transaction for the block is still in flight
        // (e.g. a previous flush or a demand fetch): chain behind it.
        // The record is parked in pendingFlushes — not captured in
        // the closure — so fills and reads of the block keep seeing
        // its words while it waits.
        pendingFlushes[block].push_back(rec);
        it->second.continuations.push_back(
            [this, block] { retryPendingFlush(block); });
        return;
    }
    if (slwbUsed >= params.slwbEntries) {
        // Retry from scratch when an entry frees: a transaction for
        // this block may have appeared in the meantime.
        pendingFlushes[block].push_back(rec);
        slwbWaiters.push_back(
            [this, block] { retryPendingFlush(block); });
        return;
    }
    createTxn(rec.blockAddr, TxnKind::Update);
    CPX_PROBE(fabric, onWcFlush, self, rec.blockAddr, rec.dirtyMask);
    NodeId from = self;
    std::uint32_t mask = rec.dirtyMask;
    std::vector<std::uint32_t> words = rec.words;
    sendToHome(block, msg_bytes::update(rec.dirtyWords()),
               [block, from, mask,
                words = std::move(words)](DirectoryController &dir) {
        dir.onUpdateReq(block, from, mask, words);
    });
}

void
SlcController::retryPendingFlush(Addr block)
{
    auto it = pendingFlushes.find(block);
    if (it == pendingFlushes.end())
        return;  // already re-issued by an earlier wakeup
    WriteCacheFlush rec = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty())
        pendingFlushes.erase(it);
    --writeClassOutstanding;  // re-counted by startUpdateFlush
    startUpdateFlush(rec);
}

void
SlcController::softwarePrefetch(Addr a, bool exclusive)
{
    withPort([this, a, exclusive] {
        Addr block = tags.align(a);
        Line *line = tags.find(a);
        if (line) {
            // Already resident. An exclusive prefetch of a SHARED
            // copy could upgrade, but a wrong guess would invalidate
            // other readers: stay conservative, like [9]'s compiler.
            return;
        }
        if (txns.count(block))
            return;  // already being fetched
        if (params.protocol.compUpdate && params.writeCacheEnabled &&
            (writeCache.contains(a) || pendingFlushes.count(block)))
            return;
        if (slwbUsed >= params.slwbEntries) {
            dropPrefetch(block);
            return;  // prefetches are droppable
        }

        // Software prefetches share the "prefetched, unreferenced"
        // line bit with the hardware engine (a demand hit will also
        // credit the hardware usefulness counter — harmless unless
        // both schemes run together, which §6 argues against).
        createTxn(block, TxnKind::Prefetch);
        ++statSwPrefetches;
        NodeId from = self;
        if (exclusive) {
            sendToHome(block, msg_bytes::control,
                       [block, from](DirectoryController &dir) {
                dir.onWriteReq(block, from);
            });
        } else {
            sendToHome(block, msg_bytes::control,
                       [block, from](DirectoryController &dir) {
                dir.onReadReq(block, from, true);
            });
        }
    });
}

void
SlcController::drainWrites(Callback done)
{
    if (params.protocol.compUpdate && params.writeCacheEnabled) {
        for (const WriteCacheFlush &rec : writeCache.flushAll())
            startUpdateFlush(rec);
    }
    if (writeClassOutstanding == 0) {
        done();
        return;
    }
    releaseWaiters.push_back(std::move(done));
}

// --------------------------------------------------------------------------
// Network-side: replies
// --------------------------------------------------------------------------

SlcController::Line *
SlcController::installLine(Addr block, const Txn &txn, ReplyKind kind)
{
    evictForFill(block);
    Line *line = tags.insert(block);
    bool exclusive = kind == ReplyKind::DataExclusive;
    line->state = exclusive ? LineState::Dirty : LineState::Shared;
    line->compCounter = params.competitiveThreshold;
    line->prefetched =
        txn.kind == TxnKind::Prefetch && !txn.demandJoined;
    // A migratory grant (exclusive data for a read) arrives
    // unmodified; a write-miss grant is modified by definition.
    line->locallyModified = txn.kind == TxnKind::WriteMiss ||
                            txn.kind == TxnKind::Upgrade;

    // Fill the data from memory (the home replied after bringing
    // memory up to date), then merge any writes that arrived while
    // the fetch was outstanding.
    line->data.resize(fabric.amap().wordsPerBlock());
    BackingStore &store = fabric.store();
    for (unsigned w = 0; w < line->data.size(); ++w)
        line->data[w] = store.read32(block + Addr(w) * wordBytes);
    for (const auto &[word, value] : txn.pendingWrites)
        line->data[word] = value;

    if (params.protocol.compUpdate) {
        // A flush record parked between write cache and Update
        // transaction (SLWB pressure) still holds words the home has
        // not seen: they must land in the fill, or an exclusive
        // grant would install stale memory data and the node's own
        // eventual update — which the home never sends back to the
        // writer — would leave this copy stale forever. The record
        // stays parked: home and peers still need the update.
        auto pit = pendingFlushes.find(block);
        if (pit != pendingFlushes.end()) {
            for (const WriteCacheFlush &rec : pit->second) {
                for (unsigned w = 0; w < line->data.size(); ++w) {
                    if (rec.dirtyMask & (1u << w)) {
                        line->data[w] = rec.words[w];
                        line->locallyModified = true;
                    }
                }
            }
        }
        // Words buffered in the write cache while the block was
        // absent must be visible in the installed line: once the
        // write-cache entry flushes to a block we hold exclusively
        // (a migratory grant), the home does not propagate the
        // update back to us — the line is authoritative and has to
        // carry the words itself.
        std::uint32_t v;
        for (unsigned w = 0; w < line->data.size(); ++w) {
            if (writeCache.readWord(block + Addr(w) * wordBytes, v)) {
                line->data[w] = v;
                line->locallyModified = true;
            }
        }
        if (line->state == LineState::Dirty) {
            // Exclusive (migratory) grant: later writes go straight
            // to the DIRTY line, so a lingering write-cache entry
            // would go stale — the line has absorbed its words and
            // write-back semantics now carry them.
            writeCache.drop(block);
        }
    }
    return line;
}

void
SlcController::onReply(Addr block, ReplyKind kind)
{
    // The reply's delivery tick, before the SLC port wait: the gap
    // to completion is the attribution model's "fill" segment.
    const Tick delivered = fabric.eq().now();
    withPort([this, block, kind, delivered] {
        auto it = txns.find(block);
        if (it == txns.end())
            panic("reply for unknown transaction, block %llx node %u",
                  static_cast<unsigned long long>(block), self);
        Txn txn = std::move(it->second);
        txns.erase(it);
        CPX_TRACE(traceTag, "n%u reply blk=%llx kind=%d txnkind=%d",
                  self, (unsigned long long)block, (int)kind,
                  (int)txn.kind);

        // Transaction latency: histogram sampling and trace records
        // are observation-only — neither perturbs event timing, so
        // simulated stats stay bit-identical with tracing off or on.
        const Tick lat = fabric.eq().now() - txn.start;
        CPX_PROBE(fabric, onTxnEnd, self, block, txn.kind, txn.start,
                  delivered, fabric.eq().now());
        if (txn.kind == TxnKind::WriteMiss ||
            txn.kind == TxnKind::Upgrade) {
            latOwnership.sample(lat);
        } else if (txn.kind == TxnKind::Prefetch &&
                   !txn.demandJoined) {
            latPrefetchFill.sample(lat);
        }

        switch (kind) {
          case ReplyKind::DataShared:
          case ReplyKind::DataExclusive: {
            Line *line = installLine(block, txn, kind);
            bool demand = txn.kind == TxnKind::Read ||
                          (txn.kind == TxnKind::Prefetch &&
                           txn.demandJoined);
            if (demand) {
                missLatency.sample(static_cast<double>(lat));
                latReadMiss.sample(lat);
            }
            if (txn.kind == TxnKind::Prefetch && !txn.demandJoined)
                CPX_PROBE(fabric, onPrefetchFill, self, block, lat);
            if (txn.kind == TxnKind::WriteMiss ||
                txn.kind == TxnKind::Upgrade) {
                for (Callback &cb : txn.writeWaiters)
                    cb();
            } else if (txn.wantsWrite) {
                if (kind == ReplyKind::DataExclusive) {
                    line->locallyModified = true;
                    --writeClassOutstanding;
                    for (Callback &cb : txn.writeWaiters)
                        cb();
                } else {
                    // Granted SHARED but a write merged in: the
                    // ownership request follows immediately (already
                    // counted in writeClassOutstanding). The merged
                    // write values travel along — if this line is
                    // invalidated before the upgrade completes, they
                    // must survive into the reinstall.
                    startPreCountedUpgrade(block,
                                           std::move(txn.writeWaiters),
                                           std::move(txn.pendingWrites));
                }
            }
            break;
          }

          case ReplyKind::UpgradeAck: {
            Line *line = tags.find(block);
            if (!line) {
                // The line was silently displaced while the upgrade
                // was in flight (finite SLC); reinstall it — the
                // home guarantees we were still in the presence
                // vector, so the grant is valid.
                line = installLine(block, txn, ReplyKind::DataExclusive);
            }
            line->state = LineState::Dirty;
            line->locallyModified = true;
            for (const auto &[word, value] : txn.pendingWrites)
                line->data[word] = value;
            for (Callback &cb : txn.writeWaiters)
                cb();
            break;
          }

          case ReplyKind::UpdateDone:
            break;
        }

        notifyProbes(block);
        releaseSlwb();
        if (isWriteClass(txn.kind))
            --writeClassOutstanding;
        maybeFinishRelease();

        for (Callback &cb : txn.continuations)
            cb();
    });
}

void
SlcController::startPreCountedUpgrade(
    Addr block, std::vector<Callback> waiters,
    std::vector<std::pair<unsigned, std::uint32_t>> pending_writes)
{
    // A transaction for the block may exist (this call can run
    // deferred, after SLWB pressure): merge the write obligation
    // instead of creating a duplicate.
    auto it = txns.find(block);
    if (it != txns.end()) {
        Txn &txn = it->second;
        for (auto &pw : pending_writes)
            txn.pendingWrites.push_back(pw);
        for (Callback &cb : waiters)
            txn.writeWaiters.push_back(std::move(cb));
        if (txn.kind == TxnKind::Read ||
            txn.kind == TxnKind::Prefetch) {
            if (txn.wantsWrite) {
                // Already counted once: drop our duplicate count.
                --writeClassOutstanding;
                maybeFinishRelease();
            } else {
                txn.wantsWrite = true;
            }
        } else {
            // A write-class transaction already carries its own
            // count; drop ours.
            --writeClassOutstanding;
            maybeFinishRelease();
        }
        return;
    }

    if (slwbUsed >= params.slwbEntries) {
        // The installed line may already carry the merged write
        // values; record the obligation so the block keeps reading
        // as mid-transaction (hasPendingTransaction) while we wait.
        ++deferredUpgrades[block];
        slwbWaiters.push_back(
            [this, block, waiters = std::move(waiters),
             pending = std::move(pending_writes)]() mutable {
            auto dit = deferredUpgrades.find(block);
            if (dit != deferredUpgrades.end() && --dit->second == 0)
                deferredUpgrades.erase(dit);
            startPreCountedUpgrade(block, std::move(waiters),
                                   std::move(pending));
        });
        return;
    }

    Txn &txn = createTxn(block, TxnKind::Upgrade);
    txn.writeWaiters = std::move(waiters);
    txn.pendingWrites = std::move(pending_writes);
    NodeId from = self;
    sendToHome(block, msg_bytes::control,
               [block, from](DirectoryController &dir) {
        dir.onUpgradeReq(block, from);
    });
}

// --------------------------------------------------------------------------
// Network-side: coherence actions
// --------------------------------------------------------------------------

void
SlcController::onInvalidate(Addr block, NodeId home)
{
    withPort([this, block, home] {
        ++statInvalsReceived;
        CPX_TRACE(traceTag, "n%u inval blk=%llx present=%d", self,
                  (unsigned long long)block,
                  tags.find(block) != nullptr);
        if (tags.find(block))
            removeLine(block, RemovalCause::Invalidation);
        NodeId from = self;
        sendProtocolMessage(fabric, self, home, msg_bytes::control,
                            [this, block, home, from] {
            fabric.dir(home).onInvAck(block, from);
        }, MsgClass::Coherence);
    });
}

void
SlcController::onFetch(Addr block, NodeId home, bool invalidate)
{
    withPort([this, block, home, invalidate] {
        Line *line = tags.find(block);
        bool present = line != nullptr;
        bool did_modify = present && line->locallyModified;
        CPX_TRACE(traceTag, "n%u fetch blk=%llx inv=%d present=%d",
                  self, (unsigned long long)block, invalidate,
                  present);
        if (present) {
            // The response carries the line data; memory is brought
            // up to date before the home replies to the requester.
            writeLineToStore(block, *line);
            if (invalidate) {
                removeLine(block, RemovalCause::Invalidation);
            } else {
                line->state = LineState::Shared;
                line->locallyModified = false;
                notifyProbes(block);
            }
        }
        NodeId from = self;
        sendProtocolMessage(fabric, self, home,
                            msg_bytes::block(params.blockBytes),
                            [this, block, home, from, did_modify,
                             present] {
            fabric.dir(home).onFetchResp(block, from, did_modify,
                                         present);
        }, MsgClass::Data);
    });
}

void
SlcController::onUpdate(Addr block, NodeId home, std::uint32_t mask,
                        const std::vector<std::uint32_t> &words,
                        NodeId writer)
{
    (void)writer;
    withPort([this, block, home, mask, words] {
        ++statUpdatesReceived;
        Line *line = tags.find(block);
        bool invalidated = false;
        if (!line) {
            // Presence said we have it but the line is gone; prune —
            // unless a fetch of ours is in flight, in which case we
            // are about to have it again.
            invalidated = txns.count(block) == 0;
        } else {
            line->locallyModified = false;
            if (line->compCounter <= 1) {
                // Competitive threshold reached with no intervening
                // local access: invalidate the local copy.
                removeLine(block, RemovalCause::Invalidation);
                ++statCounterInvals;
                invalidated = true;
            } else {
                --line->compCounter;
                for (unsigned w = 0; w < line->data.size(); ++w)
                    if (mask & (1u << w))
                        line->data[w] = words[w];
                // The write-through FLC is not updated remotely:
                // drop its copy so the next read refetches from SLC.
                flc.invalidate(block);
                notifyProbes(block);
            }
        }
        NodeId from = self;
        sendProtocolMessage(fabric, self, home, msg_bytes::control,
                            [this, block, home, from, invalidated] {
            fabric.dir(home).onUpdateAck(block, from, invalidated);
        }, MsgClass::Coherence);
    });
}

void
SlcController::onMigProbe(Addr block, NodeId home)
{
    withPort([this, block, home] {
        Line *line = tags.find(block);
        bool gave_up;
        if (!line) {
            gave_up = true;
        } else if (line->locallyModified) {
            // Modified since the last update from the home: this is
            // the migratory pattern — give up the copy (§3.4).
            removeLine(block, RemovalCause::Invalidation);
            gave_up = true;
        } else {
            gave_up = false;
        }
        NodeId from = self;
        sendProtocolMessage(fabric, self, home, msg_bytes::control,
                            [this, block, home, from, gave_up] {
            fabric.dir(home).onMigProbeResp(block, from, gave_up);
        }, MsgClass::Coherence);
    });
}

// --------------------------------------------------------------------------
// Functional flush (end of run, before verification)
// --------------------------------------------------------------------------

void
SlcController::flushFunctionalState()
{
    tags.forEach([this](Addr block, Line &line) {
        if (line.state == LineState::Dirty)
            writeLineToStore(block, line);
    });
    BackingStore &store = fabric.store();
    // Parked flush records first (in issue order): any write-cache
    // record for the same block is younger and overwrites below.
    for (const auto &[block, recs] : pendingFlushes) {
        for (const WriteCacheFlush &rec : recs)
            for (unsigned w = 0; w < rec.words.size(); ++w)
                if (rec.dirtyMask & (1u << w))
                    store.write32(block + Addr(w) * wordBytes,
                                  rec.words[w]);
    }
    for (const WriteCacheFlush &rec : writeCache.flushAll()) {
        for (unsigned w = 0; w < rec.words.size(); ++w)
            if (rec.dirtyMask & (1u << w))
                store.write32(rec.blockAddr + Addr(w) * wordBytes,
                              rec.words[w]);
    }
}

} // namespace cpx
