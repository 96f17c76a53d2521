#include "workloads/trace.hh"

#include <fstream>
#include <map>
#include <sstream>

#include "sim/logging.hh"

namespace cpx
{

std::vector<std::pair<unsigned, TraceEvent>>
parseTrace(const std::string &text)
{
    std::vector<std::pair<unsigned, TraceEvent>> events;
    std::istringstream in(text);
    std::string line;
    unsigned line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::istringstream ls(line);
        std::string first;
        if (!(ls >> first))
            continue;  // blank line
        if (first[0] == '#')
            continue;  // comment

        unsigned proc = 0;
        try {
            proc = static_cast<unsigned>(std::stoul(first));
        } catch (...) {
            fatal("trace line %u: expected processor id, got '%s'",
                  line_no, first.c_str());
        }

        std::string op;
        if (!(ls >> op))
            fatal("trace line %u: missing operation", line_no);

        TraceEvent ev{};
        if (op == "r") {
            ev.kind = TraceEvent::Kind::Read;
            if (!(ls >> std::hex >> ev.addr))
                fatal("trace line %u: read needs an address",
                      line_no);
        } else if (op == "w") {
            ev.kind = TraceEvent::Kind::Write;
            if (!(ls >> std::hex >> ev.addr >> std::dec >> ev.value))
                fatal("trace line %u: write needs address and value",
                      line_no);
        } else if (op == "c") {
            ev.kind = TraceEvent::Kind::Compute;
            if (!(ls >> ev.cycles))
                fatal("trace line %u: compute needs a cycle count",
                      line_no);
        } else if (op == "l") {
            ev.kind = TraceEvent::Kind::Lock;
            if (!(ls >> ev.lockIndex))
                fatal("trace line %u: lock needs an index", line_no);
        } else if (op == "u") {
            ev.kind = TraceEvent::Kind::Unlock;
            if (!(ls >> ev.lockIndex))
                fatal("trace line %u: unlock needs an index",
                      line_no);
        } else if (op == "b") {
            ev.kind = TraceEvent::Kind::Barrier;
        } else {
            fatal("trace line %u: unknown operation '%s'", line_no,
                  op.c_str());
        }
        events.emplace_back(proc, ev);
    }
    return events;
}

TraceWorkload::TraceWorkload(const std::string &text,
                             std::size_t region_len)
    : regionLen(region_len)
{
    auto events = parseTrace(text);
    auto touches_memory = [](const TraceEvent &ev) {
        return ev.kind == TraceEvent::Kind::Read ||
               ev.kind == TraceEvent::Kind::Write;
    };
    if (regionLen == 0) {
        regionLen = wordBytes;
        for (const auto &[proc, ev] : events)
            if (touches_memory(ev))
                regionLen = std::max<std::size_t>(regionLen,
                                                  ev.addr + wordBytes);
    }
    for (auto &[proc, ev] : events) {
        if (proc >= perProc.size())
            perProc.resize(proc + 1);
        if (touches_memory(ev)) {
            if (ev.addr + wordBytes > regionLen)
                fatal("trace touches offset %llx beyond the %zu-byte "
                      "region",
                      static_cast<unsigned long long>(ev.addr),
                      regionLen);
        }
        if (ev.kind == TraceEvent::Kind::Lock ||
            ev.kind == TraceEvent::Kind::Unlock)
            maxLockIndex = std::max(maxLockIndex, ev.lockIndex + 1);
        perProc[proc].push_back(ev);
    }
}

std::unique_ptr<Workload>
makeTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read trace file '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return std::make_unique<TraceWorkload>(text.str());
}

void
TraceWorkload::setup(System &sys)
{
    numProcs = sys.params().numProcs;
    if (perProc.size() > numProcs)
        fatal("trace references processor %zu but the machine has "
              "only %u",
              perProc.size() - 1, numProcs);
    perProc.resize(numProcs);
    barrier.init(sys, numProcs);
    region = sys.heap().allocBlockAligned(regionLen);
    for (std::size_t off = 0; off < regionLen; off += wordBytes)
        sys.store().write32(region + off, 0);
    lockAddrs.resize(maxLockIndex);
    for (unsigned i = 0; i < maxLockIndex; ++i)
        lockAddrs[i] = sys.heap().allocLock();
}

void
TraceWorkload::parallel(Processor &p, unsigned id)
{
    for (const TraceEvent &ev : perProc[id]) {
        switch (ev.kind) {
          case TraceEvent::Kind::Read:
            (void)p.read32(region + ev.addr);
            break;
          case TraceEvent::Kind::Write:
            p.write32(region + ev.addr, ev.value);
            break;
          case TraceEvent::Kind::Compute:
            p.compute(ev.cycles);
            break;
          case TraceEvent::Kind::Lock:
            p.lock(lockAddrs[ev.lockIndex]);
            break;
          case TraceEvent::Kind::Unlock:
            p.unlock(lockAddrs[ev.lockIndex]);
            break;
          case TraceEvent::Kind::Barrier:
            barrier.wait(p, id);
            break;
        }
    }
}

bool
TraceWorkload::verify(System &sys)
{
    // For every address written by exactly one processor, the final
    // memory value must be that processor's last written value
    // (stronger checks need knowledge of the trace's intent).
    std::map<Addr, std::pair<unsigned, std::uint32_t>> last_writer;
    std::map<Addr, bool> multi_writer;
    for (unsigned id = 0; id < perProc.size(); ++id) {
        for (const TraceEvent &ev : perProc[id]) {
            if (ev.kind != TraceEvent::Kind::Write)
                continue;
            auto it = last_writer.find(ev.addr);
            if (it != last_writer.end() && it->second.first != id)
                multi_writer[ev.addr] = true;
            last_writer[ev.addr] = {id, ev.value};
        }
    }
    for (const auto &[off, writer] : last_writer) {
        if (multi_writer.count(off))
            continue;
        if (sys.store().read32(region + off) != writer.second)
            return false;
    }
    return true;
}

} // namespace cpx
