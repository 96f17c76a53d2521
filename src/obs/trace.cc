#include "obs/trace.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "obs/metrics.hh"
#include "sim/logging.hh"

namespace cpx
{

namespace
{

const char *
msgClassName(unsigned klass)
{
    static const char *const names[] = {"request", "data", "coherence",
                                        "update", "sync"};
    return klass < 5 ? names[klass] : "?";
}

const char *
slcStateName(std::uint64_t code)
{
    switch (code) {
      case 0: return "invalid";
      case 1: return "shared";
      case 2: return "dirty";
    }
    return "?";
}

unsigned long long
u(std::uint64_t v)
{
    return v;
}

/** Transaction kind of a TxnStart/TxnEnd record. */
const char *
txnName(const TraceRecord &r)
{
    return txnKindName(static_cast<TxnKind>(r.aux));
}

/** Kind-specific detail column of a tail line. */
std::string
describeRecord(const TraceRecord &r)
{
    std::string out;
    const NodeId peer = r.aux & tracePeerNone;  // packed by traceAux()
    const unsigned tag = r.aux >> 16;
    switch (r.kind) {
      case TraceKind::MsgSend:
        append(out, "id=%llu -> node %u class=%s payload=%llu",
               u(r.arg), peer, msgClassName(tag), u(r.addr));
        break;
      case TraceKind::MsgRecv:
        append(out, "id=%llu <- node %u class=%s", u(r.arg), peer,
               msgClassName(tag));
        break;
      case TraceKind::SlcState:
        append(out, "blk=%#llx state=%s", u(r.addr),
               slcStateName(r.arg));
        break;
      case TraceKind::DirState:
        append(out, "blk=%#llx presence=%#llx owner=%d mod=%u",
               u(r.addr), u(r.arg),
               peer == tracePeerNone ? -1 : static_cast<int>(peer), tag);
        break;
      case TraceKind::TxnStart:
        append(out, "blk=%#llx %s", u(r.addr), txnName(r));
        break;
      case TraceKind::TxnEnd:
        append(out, "blk=%#llx %s lat=%llu", u(r.addr),
               txnName(r), u(r.arg));
        break;
      case TraceKind::PrefetchIssue:
      case TraceKind::PrefetchDrop:
      case TraceKind::WcInsert:
      case TraceKind::WcCombine:
        append(out, "blk=%#llx", u(r.addr));
        break;
      case TraceKind::PrefetchFill:
        append(out, "blk=%#llx lat=%llu", u(r.addr), u(r.arg));
        break;
      case TraceKind::WcFlush:
        append(out, "blk=%#llx mask=%#llx", u(r.addr), u(r.arg));
        break;
      case TraceKind::LockAcquire:
        append(out, "lock=%#llx -> node %u", u(r.addr), r.aux);
        break;
      case TraceKind::LockRelease:
        append(out, "lock=%#llx by node %u", u(r.addr), r.aux);
        break;
    }
    return out;
}

} // anonymous namespace

const char *
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::MsgSend:       return "msg-send";
      case TraceKind::MsgRecv:       return "msg-recv";
      case TraceKind::SlcState:      return "slc-state";
      case TraceKind::DirState:      return "dir-state";
      case TraceKind::TxnStart:      return "txn-start";
      case TraceKind::TxnEnd:        return "txn-end";
      case TraceKind::PrefetchIssue: return "prefetch-issue";
      case TraceKind::PrefetchDrop:  return "prefetch-drop";
      case TraceKind::PrefetchFill:  return "prefetch-fill";
      case TraceKind::WcInsert:      return "wc-insert";
      case TraceKind::WcCombine:     return "wc-combine";
      case TraceKind::WcFlush:       return "wc-flush";
      case TraceKind::LockAcquire:   return "lock-acquire";
      case TraceKind::LockRelease:   return "lock-release";
    }
    return "?";
}

std::vector<TraceRecord>
TraceRing::snapshot() const
{
    std::vector<TraceRecord> out;
    std::size_t n = size();
    out.reserve(n);
    // Oldest record: at head once wrapped, at 0 before.
    std::size_t start = pushed > buf.size() ? head : 0;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(buf[(start + i) % buf.size()]);
    return out;
}

TraceSink::TraceSink(unsigned num_nodes,
                     std::size_t capacity_per_node)
{
    if (num_nodes == 0)
        fatal("trace sink needs at least one node");
    rings.reserve(num_nodes);
    for (unsigned n = 0; n < num_nodes; ++n)
        rings.emplace_back(capacity_per_node);
}

TraceSink::~TraceSink()
{
    Logger::clearFailureHook(this);
}

std::uint64_t
TraceSink::recorded() const
{
    std::uint64_t total = 0;
    for (const TraceRing &ring : rings)
        total += ring.total();
    return total;
}

std::uint64_t
TraceSink::overwritten() const
{
    std::uint64_t total = 0;
    for (const TraceRing &ring : rings)
        total += ring.overwritten();
    return total;
}

// --------------------------------------------------------------------------
// Chrome trace export
// --------------------------------------------------------------------------

std::string
TraceSink::chromeTraceJson(const MetricTimeSeries *series) const
{
    std::string out;
    out.reserve(4096);
    out += "{\"traceEvents\":[\n";
    append(out,
           "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":\"cpxsim\"}}");
    for (unsigned n = 0; n < rings.size(); ++n) {
        append(out,
               ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
               "\"name\":\"thread_name\","
               "\"args\":{\"name\":\"node %u\"}}",
               n, n);
    }

    // Async-event ids must be globally unique per pair: transactions
    // to different blocks overlap freely on one node, and two nodes
    // can fetch the same block concurrently, so neither block nor
    // node alone is usable as the id.
    std::uint64_t next_pair = 1;

    for (unsigned n = 0; n < rings.size(); ++n) {
        std::vector<TraceRecord> recs = rings[n].snapshot();

        // Pair TxnStart/TxnEnd per block. Unmatched records — the
        // start overwritten in the ring, or the transaction still in
        // flight — degrade to instants so "b"/"e" stay balanced.
        std::vector<char> role(recs.size(), 0);
        std::vector<std::uint64_t> pair(recs.size(), 0);
        std::unordered_map<Addr, std::vector<std::size_t>> open;
        for (std::size_t i = 0; i < recs.size(); ++i) {
            if (recs[i].kind == TraceKind::TxnStart) {
                open[recs[i].addr].push_back(i);
            } else if (recs[i].kind == TraceKind::TxnEnd) {
                auto it = open.find(recs[i].addr);
                if (it == open.end() || it->second.empty())
                    continue;
                std::size_t s = it->second.back();
                it->second.pop_back();
                role[s] = 'b';
                role[i] = 'e';
                pair[s] = pair[i] = next_pair++;
            }
        }

        for (std::size_t i = 0; i < recs.size(); ++i) {
            const TraceRecord &r = recs[i];
            if (role[i] == 'b' || role[i] == 'e') {
                append(out,
                       ",\n{\"ph\":\"%c\",\"cat\":\"txn\","
                       "\"id\":\"0x%llx\",\"pid\":0,\"tid\":%u,"
                       "\"ts\":%llu,\"name\":\"%s\"",
                       role[i], u(pair[i]), n, u(r.tick),
                       txnName(r));
                if (role[i] == 'b')
                    append(out, ",\"args\":{\"block\":\"0x%llx\"}}",
                           u(r.addr));
                else
                    append(out, ",\"args\":{\"latency\":%llu}}",
                           u(r.arg));
                continue;
            }
            append(out,
                   ",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
                   "\"tid\":%u,\"ts\":%llu,\"name\":\"%s\","
                   "\"args\":{\"addr\":\"0x%llx\",\"arg\":%llu,"
                   "\"aux\":%u}}",
                   n, u(r.tick), traceKindName(r.kind), u(r.addr),
                   u(r.arg), r.aux);
        }
    }
    // Interval-metric counter tracks: one "C" series per metric,
    // stamped at each sampled window's end tick. Perfetto renders
    // these as value-over-time tracks alongside the node tracks.
    if (series && !series->empty()) {
        for (std::size_t row = 0; row < series->rows(); ++row) {
            for (std::size_t m = 0; m < series->names.size(); ++m) {
                append(out,
                       ",\n{\"ph\":\"C\",\"pid\":0,\"ts\":%llu,"
                       "\"name\":\"%s\",\"args\":{\"value\":%llu}}",
                       static_cast<unsigned long long>(
                           series->ticks[row]),
                       series->names[m].c_str(),
                       static_cast<unsigned long long>(
                           series->at(row, m)));
            }
        }
    }
    out += "\n],\"displayTimeUnit\":\"ns\"}\n";
    return out;
}

bool
TraceSink::writeChromeTrace(const std::string &path,
                            std::string &error,
                            const MetricTimeSeries *series) const
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file) {
        error = "cannot open '" + path + "' for writing";
        return false;
    }
    file << chromeTraceJson(series);
    if (!file.flush()) {
        error = "short write to '" + path + "'";
        return false;
    }
    return true;
}

// --------------------------------------------------------------------------
// Flight-recorder dumps
// --------------------------------------------------------------------------

std::string
TraceSink::formatTails(std::size_t per_node) const
{
    std::string out;
    append(out, "=== flight recorder (last %zu events per node) ===\n",
           per_node);
    for (unsigned n = 0; n < rings.size(); ++n) {
        const TraceRing &ring = rings[n];
        append(out,
               "node %-2u: %" PRIu64 " recorded, %" PRIu64
               " overwritten\n",
               n, ring.total(), ring.overwritten());
        std::vector<TraceRecord> recs = ring.snapshot();
        std::size_t start =
            recs.size() > per_node ? recs.size() - per_node : 0;
        for (std::size_t i = start; i < recs.size(); ++i) {
            const TraceRecord &r = recs[i];
            append(out, "  t=%-10" PRIu64 " %-14s %s\n", r.tick,
                   traceKindName(r.kind), describeRecord(r).c_str());
        }
    }
    append(out, "=== end flight recorder ===\n");
    return out;
}

void
TraceSink::failureDump(void *ctx)
{
    const TraceSink *sink = static_cast<const TraceSink *>(ctx);
    std::fputs(sink->formatTails().c_str(), stderr);
}

void
TraceSink::installFailureDump()
{
    Logger::setFailureHook(&TraceSink::failureDump, this);
}

} // namespace cpx
