#include "obs/attrib.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace cpx
{

void
AttribSink::onTxnEnd(NodeId node, Addr block, TxnKind kind, Tick start,
                     Tick delivered, Tick done)
{
    record(node, {.kind = AttribRecord::Kind::TxnDone,
                  .node = static_cast<std::uint16_t>(node),
                  .aux = static_cast<std::uint32_t>(kind),
                  .addr = block,
                  .t0 = start, .t1 = delivered, .t2 = done});
}

void
AttribSink::onDirServiceDone(NodeId home, Addr block,
                             const DirService &svc, Tick done)
{
    const std::uint8_t flags =
        (svc.fetch ? AttribRecord::flagFetch : 0) |
        (svc.imprecise ? AttribRecord::flagImprecise : 0);
    record(home, {.kind = AttribRecord::Kind::DirDone,
                  .flags = flags,
                  .node = static_cast<std::uint16_t>(home),
                  .aux = svc.from |
                         (static_cast<std::uint32_t>(svc.kind) << 16),
                  .addr = block,
                  .t0 = svc.enqueuedAt, .t1 = svc.dequeuedAt,
                  .t2 = svc.actionAt, .t3 = svc.fanoutAt,
                  .t4 = svc.lastRespAt, .t5 = done});
}

void
AttribSink::onLockGrant(NodeId home, Addr lock, NodeId to, Tick arrived,
                        Tick sent)
{
    record(home, {.kind = AttribRecord::Kind::LockGrant,
                  .node = static_cast<std::uint16_t>(home),
                  .aux = to,
                  .addr = lock,
                  .t0 = arrived, .t1 = sent});
}

void
AttribSink::onLockDone(NodeId node, Addr lock, Tick issued, Tick granted)
{
    record(node, {.kind = AttribRecord::Kind::LockDone,
                  .node = static_cast<std::uint16_t>(node),
                  .addr = lock,
                  .t0 = issued, .t1 = granted});
}

namespace
{

/** Saturating tick difference: malformed stamp pairs attribute zero
 *  rather than wrapping. */
Tick
sub(Tick later, Tick earlier)
{
    return later > earlier ? later - earlier : 0;
}

/** Join key: address x requester node. std::map keeps iteration
 *  deterministic (address, then node, ascending). */
using JoinKey = std::pair<Addr, NodeId>;

struct JoinLists
{
    std::vector<const AttribRecord *> home; //!< DirDone / LockGrant
    std::vector<const AttribRecord *> req;  //!< TxnDone / LockDone
};

/** Per-address accumulation for the hot tables. */
struct HotAcc
{
    NodeId home = 0;
    std::uint64_t count = 0;
    std::uint64_t totalWait = 0;
};

/** Pick the top-N addresses by (totalWait desc, addr asc). */
std::vector<std::pair<Addr, HotAcc>>
topN(const std::map<Addr, HotAcc> &by_addr, std::size_t n)
{
    std::vector<std::pair<Addr, HotAcc>> rows(by_addr.begin(),
                                              by_addr.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
        if (a.second.totalWait != b.second.totalWait)
            return a.second.totalWait > b.second.totalWait;
        return a.first < b.first;
    });
    if (rows.size() > n)
        rows.resize(n);
    return rows;
}

} // namespace

AttributionResult
aggregateAttribution(const AttribSink &sink,
                     const std::function<unsigned(NodeId, NodeId)> &hops)
{
    AttributionResult ar;
    ar.enabled = true;

    const unsigned n = sink.numNodes();

    // Working per-home histograms, reduced to AttribHomeStats below.
    struct HomeWork
    {
        Histogram dirWait{attribBucketWidth, attribBucketCount};
        Histogram lockWait{attribBucketWidth, attribBucketCount};
        std::uint64_t dirRequests = 0;
        std::uint64_t lockGrants = 0;
    };
    std::vector<HomeWork> homes(n);

    std::map<JoinKey, JoinLists> txnJoin;
    std::map<JoinKey, JoinLists> lockJoin;
    std::map<Addr, HotAcc> blockAcc;
    std::map<Addr, HotAcc> lockAcc;

    // Pass 1: bucket records by join key, in node-id order. Each
    // node's vector is already time-ordered (records are appended as
    // that node's clock advances), and each key draws its home-side
    // records from exactly one node and its requester-side records
    // from exactly one node, so every per-key list is time-ordered
    // without sorting.
    for (NodeId node = 0; node < n; ++node) {
        for (const AttribRecord &r : sink.records(node)) {
            switch (r.kind) {
              case AttribRecord::Kind::DirDone: {
                Tick wait = sub(r.t1, r.t0);
                homes[node].dirRequests++;
                homes[node].dirWait.sample(wait);
                HotAcc &h = blockAcc[r.addr];
                h.home = node;
                h.count++;
                h.totalWait += wait;
                if (r.t3) {
                    ar.fanoutTotal++;
                    if (r.flags & AttribRecord::flagImprecise)
                        ar.fanoutImprecise++;
                }
                if (static_cast<TxnKind>(r.aux >> 16) ==
                    TxnKind::WriteBack) {
                    // Home-only: no requester-side transaction ever
                    // exists for a write-back.
                    AttribSegments &row = ar.classes[static_cast<
                        unsigned>(TxnKind::WriteBack)];
                    row.count++;
                    row.latency += sub(r.t5, r.t0);
                    row.dirQueue += wait;
                    row.dirService += sub(r.t2, r.t1);
                    row.ackCollect += sub(r.t5, r.t2);
                } else {
                    txnJoin[{r.addr, static_cast<NodeId>(
                        r.aux & 0xffffu)}].home.push_back(&r);
                }
                break;
              }
              case AttribRecord::Kind::TxnDone:
                txnJoin[{r.addr, node}].req.push_back(&r);
                break;
              case AttribRecord::Kind::LockGrant: {
                Tick wait = sub(r.t1, r.t0);
                homes[node].lockGrants++;
                homes[node].lockWait.sample(wait);
                HotAcc &h = lockAcc[r.addr];
                h.home = node;
                h.count++;
                h.totalWait += wait;
                lockJoin[{r.addr, static_cast<NodeId>(r.aux)}]
                    .home.push_back(&r);
                break;
              }
              case AttribRecord::Kind::LockDone:
                lockJoin[{r.addr, node}].req.push_back(&r);
                break;
            }
        }
    }

    // Pass 2: join. Per key the protocol serializes transactions
    // (one outstanding SLC transaction per block per node, one
    // outstanding acquire per lock per node), so home-side and
    // requester-side intervals alternate strictly in time and a
    // two-pointer walk pairs them exactly.
    for (const auto &[key, lists] : txnJoin) {
        std::size_t i = 0;
        for (const AttribRecord *t : lists.req) {
            const AttribRecord *d = nullptr;
            if (i < lists.home.size() &&
                lists.home[i]->t0 >= t->t0 &&
                lists.home[i]->t5 <= t->t1) {
                d = lists.home[i];
                ++i;
            }
            if (!d)
                continue; // truncated run: reply without home record
            ar.matchedTxns++;
            unsigned cls = t->aux;
            if (cls >= numTxnKinds)
                cls = 0;
            AttribSegments &row = ar.classes[cls];
            row.count++;
            row.latency += sub(t->t2, t->t0);
            row.request += sub(d->t0, t->t0);
            row.dirQueue += sub(d->t1, d->t0);
            row.dirService += sub(d->t2, d->t1);
            if (d->flags & AttribRecord::flagFetch) {
                row.ownerFetch += sub(d->t5, d->t2);
            } else if (d->t3) {
                row.invalFanout += sub(d->t4, d->t3);
                row.ackCollect += sub(d->t5, d->t4);
            }
            row.dataReturn += sub(t->t1, d->t5);
            row.fill += sub(t->t2, t->t1);
            row.dataHops +=
                hops ? hops(d->node, t->node) : 1u;
        }
        ar.unmatchedDir += lists.home.size() - i;
    }

    for (const auto &[key, lists] : lockJoin) {
        std::size_t i = 0;
        for (const AttribRecord *t : lists.req) {
            const AttribRecord *g = nullptr;
            if (i < lists.home.size() &&
                lists.home[i]->t0 >= t->t0 &&
                lists.home[i]->t1 <= t->t1) {
                g = lists.home[i];
                ++i;
            }
            if (!g)
                continue;
            ar.matchedLocks++;
            Tick lat = sub(t->t1, t->t0);
            Tick home_q = sub(g->t1, g->t0);
            if (home_q > lat)
                home_q = lat;
            ar.locks.count++;
            ar.locks.latency += lat;
            ar.locks.homeQueue += home_q;
            ar.locks.transfer += lat - home_q;
        }
        ar.unmatchedLocks += lists.home.size() - i;
    }

    // Pass 3: reduce homes and build the hot tables. p99 comes from
    // a second histogram pass over just the winning addresses so the
    // tables stay exact without one histogram per address.
    for (NodeId node = 0; node < n; ++node) {
        const HomeWork &w = homes[node];
        if (!w.dirRequests && !w.lockGrants)
            continue;
        AttribHomeStats hs;
        hs.node = node;
        hs.dirRequests = w.dirRequests;
        hs.dirWaitTotal =
            static_cast<std::uint64_t>(w.dirWait.summary().sum());
        hs.dirWaitP99 = w.dirWait.percentile(0.99);
        hs.lockGrants = w.lockGrants;
        hs.lockWaitTotal =
            static_cast<std::uint64_t>(w.lockWait.summary().sum());
        hs.lockWaitP99 = w.lockWait.percentile(0.99);
        ar.homes.push_back(hs);
    }

    auto buildHot = [&](const std::map<Addr, HotAcc> &acc,
                        AttribRecord::Kind kind,
                        std::vector<AttribHotSpot> &out) {
        auto rows = topN(acc, attribTopN);
        if (rows.empty())
            return;
        std::unordered_map<Addr, Histogram> hists;
        for (const auto &[addr, h] : rows)
            hists.emplace(addr,
                          Histogram(attribBucketWidth,
                                    attribBucketCount));
        for (NodeId node = 0; node < n; ++node) {
            for (const AttribRecord &r : sink.records(node)) {
                if (r.kind != kind)
                    continue;
                auto it = hists.find(r.addr);
                if (it != hists.end())
                    it->second.sample(sub(r.t1, r.t0));
            }
        }
        for (const auto &[addr, h] : rows) {
            AttribHotSpot spot;
            spot.addr = addr;
            spot.home = h.home;
            spot.count = h.count;
            spot.totalWait = h.totalWait;
            spot.p99Wait = hists.at(addr).percentile(0.99);
            out.push_back(spot);
        }
    };
    buildHot(blockAcc, AttribRecord::Kind::DirDone, ar.hotBlocks);
    buildHot(lockAcc, AttribRecord::Kind::LockGrant, ar.hotLocks);

    return ar;
}

std::string
formatAttribution(const AttributionResult &ar)
{
    std::string out;
    if (!ar.enabled) {
        out = "attribution: disabled\n";
        return out;
    }
    append(out,
           "Causal stall attribution (%" PRIu64 " matched txns, %" PRIu64
           " unmatched home records; %" PRIu64 " matched lock acquires)\n",
           ar.matchedTxns, ar.unmatchedDir, ar.matchedLocks);
    append(out,
           "%-11s %9s %11s %9s %9s %9s %9s %9s %9s %9s %9s\n",
           "class", "count", "latency", "request", "dirQueue",
           "dirServ", "fetch", "fanout", "ackColl", "dataRet", "fill");
    for (unsigned c = 0; c < numTxnKinds; ++c) {
        const AttribSegments &row = ar.classes[c];
        if (!row.count)
            continue;
        append(out,
               "%-11s %9" PRIu64 " %11" PRIu64 " %9" PRIu64 " %9" PRIu64
               " %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %9" PRIu64
               " %9" PRIu64 " %9" PRIu64 "\n",
               txnKindName(static_cast<TxnKind>(c)), row.count,
               row.latency, row.request, row.dirQueue, row.dirService,
               row.ownerFetch, row.invalFanout, row.ackCollect,
               row.dataReturn, row.fill);
    }
    if (ar.locks.count) {
        double hq = ar.locks.latency
                        ? 100.0 * ar.locks.homeQueue / ar.locks.latency
                        : 0.0;
        append(out,
               "locks: %" PRIu64 " acquires, latency %" PRIu64
               " (home queue %" PRIu64 " = %.1f%%, transfer %" PRIu64
               ")\n",
               ar.locks.count, ar.locks.latency, ar.locks.homeQueue,
               hq, ar.locks.transfer);
    }
    if (ar.fanoutTotal)
        append(out,
               "fan-outs: %" PRIu64 " (%" PRIu64
               " over inexact sharer sets)\n",
               ar.fanoutTotal, ar.fanoutImprecise);
    auto hotTable = [&](const char *title,
                        const std::vector<AttribHotSpot> &rows) {
        if (rows.empty())
            return;
        append(out, "%s:\n", title);
        append(out, "  %-14s %6s %9s %12s %10s %10s\n", "addr", "home",
               "count", "totalWait", "meanWait", "p99Wait");
        for (const AttribHotSpot &s : rows)
            append(out,
                   "  %#-14llx %6u %9" PRIu64 " %12" PRIu64
                   " %10.1f %10.1f\n",
                   static_cast<unsigned long long>(s.addr), s.home,
                   s.count, s.totalWait, s.meanWait(), s.p99Wait);
    };
    hotTable("hot blocks (by directory queue wait)", ar.hotBlocks);
    hotTable("hot locks (by home queue wait)", ar.hotLocks);
    return out;
}

} // namespace cpx
