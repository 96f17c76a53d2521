#include "node/processor.hh"

#include <bit>

#include "obs/metrics.hh"
#include "proto/lock_manager.hh"
#include "proto/messenger.hh"
#include "sim/logging.hh"

namespace cpx
{

Processor::Processor(NodeId node, Fabric &f, SlcController &slc_ref,
                     Flc &flc_ref)
    : self(node), fabric(f), params(f.params()), slc(slc_ref),
      flc(flc_ref)
{
}

void
Processor::registerMetrics(MetricRegistry &registry,
                           const std::string &prefix) const
{
    registry.addValue(prefix + ".busy", breakdown.busy);
    registry.addValue(prefix + ".readStall", breakdown.readStall);
    registry.addValue(prefix + ".writeStall", breakdown.writeStall);
    registry.addValue(prefix + ".acquireStall",
                      breakdown.acquireStall);
    registry.addValue(prefix + ".releaseStall",
                      breakdown.releaseStall);
}

// --------------------------------------------------------------------------
// Lifecycle
// --------------------------------------------------------------------------

void
Processor::start(std::function<void()> body)
{
    if (fiber)
        panic("processor %u started twice", self);
    fiber = std::make_unique<Fiber>([this, body = std::move(body)] {
        body();
        done = true;
        finishTick_ = fabric.eq().now();
    });
    fabric.eq().scheduleIn(0, [this] { resumeFiber(/*tail=*/true); });
}

void
Processor::sleepUntil(Tick when)
{
    // Wakeup elision (DESIGN.md §8.1): after a tail resume nothing is
    // left to run on this node before the wake event would fire, if
    // the queue has no other event due by then, so advance in place.
    EventQueue &eq = fabric.eq();
    if (tailResumed && eq.tryAdvance(when))
        return;
    eq.schedule(when, [this] { resumeFiber(/*tail=*/true); });
    Fiber::yield();
}

void
Processor::suspend()
{
    Fiber::yield();
}

void
Processor::resumeFiber(bool tail)
{
    tailResumed = tail;
    fiber->resume();
}

// --------------------------------------------------------------------------
// Reads
// --------------------------------------------------------------------------

void
Processor::timeRead(Addr a)
{
    Tick t0 = fabric.eq().now();
    ++statReads;
    breakdown.busy += 1;

    if (flc.readProbe(a)) {
        sleepUntil(t0 + params.flcHitLatency);
        return;
    }

    // FLC read misses enter the FLWB in FIFO order behind buffered
    // writes (§2); the processor blocks until the data returns.
    readDone = false;
    flwb.push_back(FlwbOp{true, a, 0, 0});
    pumpFlwb();
    if (!readDone) {
        waitingForRead = true;
        suspend();
        waitingForRead = false;
    }
    breakdown.readStall += fabric.eq().now() - t0 - 1;
}

bool
Processor::forwardFromFlwb(Addr a, std::uint32_t &value) const
{
    bool found = false;
    for (const FlwbOp &op : flwb) {  // oldest..newest: last wins
        if (op.isRead)
            continue;
        if (a >= op.addr && a + wordBytes <= op.addr + op.bytes) {
            unsigned shift = 32 * ((a - op.addr) / wordBytes);
            value = static_cast<std::uint32_t>(op.value >> shift);
            found = true;
        }
    }
    return found;
}

std::uint32_t
Processor::localWord(Addr a) const
{
    std::uint32_t v;
    if (forwardFromFlwb(a, v))
        return v;
    return slc.read32Value(a);
}

std::uint32_t
Processor::read32(Addr a)
{
    timeRead(a);
    return localWord(a);
}

std::uint64_t
Processor::read64(Addr a)
{
    timeRead(a);
    std::uint64_t lo = localWord(a);
    std::uint64_t hi = localWord(a + wordBytes);
    return lo | (hi << 32);
}

double
Processor::readDouble(Addr a)
{
    return std::bit_cast<double>(read64(a));
}

// --------------------------------------------------------------------------
// Writes
// --------------------------------------------------------------------------

void
Processor::timeWrite(Addr a, std::uint64_t value, unsigned bytes)
{
    Tick t0 = fabric.eq().now();
    ++statWrites;
    breakdown.busy += 1;
    flc.writeProbe(a);

    if (params.consistency == Consistency::SequentialConsistency) {
        // SC: stall until the write is globally performed.
        writeDone = false;
        slc.writeSC(a, value, bytes, [this] {
            writeDone = true;
            if (waitingForWrite)
                resumeFiber();
        });
        if (!writeDone) {
            waitingForWrite = true;
            suspend();
            waitingForWrite = false;
        }
        breakdown.writeStall += fabric.eq().now() - t0 - 1;
        return;
    }

    // RC: the write retires into the FLWB and the processor moves
    // on, stalling only when the buffer is full.
    if (flwb.size() >= params.flwbEntries) {
        waitingForSlot = true;
        suspend();
        breakdown.writeStall += fabric.eq().now() - t0;
    }
    flwb.push_back(FlwbOp{false, a, value, bytes});
    pumpFlwb();
    sleepUntil(fabric.eq().now() + 1);
}

void
Processor::write32(Addr a, std::uint32_t v)
{
    timeWrite(a, v, wordBytes);
}

void
Processor::write64(Addr a, std::uint64_t v)
{
    timeWrite(a, v, 2 * wordBytes);
}

void
Processor::writeDouble(Addr a, double v)
{
    write64(a, std::bit_cast<std::uint64_t>(v));
}

void
Processor::pumpFlwb()
{
    if (flwbBusy || flwb.empty())
        return;

    FlwbOp op = flwb.front();
    if (op.isRead) {
        // Reads leave the buffer at issue; the processor is blocked
        // on the result either way.
        flwb.pop_front();
        slc.readAccess(op.addr, [this, a = op.addr] {
            fabric.eq().scheduleIn(params.flcFillLatency, [this, a] {
                // Fill the FLC only if the SLC still holds the line:
                // reads served from the write cache (no SLC line)
                // must not fill, and a coherence invalidation may
                // have raced ahead during the fill latency — either
                // would break inclusion and let FLC hits bypass
                // coherence.
                if (slc.findLine(a))
                    flc.fill(a);
                readDone = true;
                if (waitingForRead)
                    resumeFiber(/*tail=*/true);
            });
        });
        return;
    }

    flwbBusy = true;
    slc.writeRC(op.addr, op.value, op.bytes, [this] {
        flwbBusy = false;
        flwb.pop_front();
        if (waitingForSlot) {
            waitingForSlot = false;
            resumeFiber();
        } else if (flwb.empty() && waitingForFlwbEmpty) {
            waitingForFlwbEmpty = false;
            resumeFiber();
        }
        pumpFlwb();
    });
}

// --------------------------------------------------------------------------
// Computation and synchronization
// --------------------------------------------------------------------------

void
Processor::compute(Tick cycles)
{
    if (cycles == 0)
        return;
    breakdown.busy += cycles;
    sleepUntil(fabric.eq().now() + cycles);
}

void
Processor::prefetch(Addr a, bool exclusive)
{
    Tick t0 = fabric.eq().now();
    breakdown.busy += 1;  // the prefetch instruction itself
    slc.softwarePrefetch(a, exclusive);
    sleepUntil(t0 + 1);
}

void
Processor::lock(Addr lock_addr)
{
    Tick t0 = fabric.eq().now();
    ++statLocks;
    breakdown.busy += 1;

    awaitedLock = lock_addr;
    NodeId home = fabric.amap().home(lock_addr);
    sendProtocolMessage(fabric, self, home, msg_bytes::control,
                        [this, lock_addr, home] {
        fabric.locks(home).onAcquire(lock_addr, self);
    }, MsgClass::Sync);
    waitingForLock = true;
    suspend();
    waitingForLock = false;
    breakdown.acquireStall += fabric.eq().now() - t0 - 1;
    CPX_PROBE(fabric, onLockDone, self, lock_addr, t0,
              fabric.eq().now());
}

void
Processor::unlock(Addr lock_addr)
{
    Tick t0 = fabric.eq().now();
    breakdown.busy += 1;
    NodeId home = fabric.amap().home(lock_addr);

    if (params.consistency == Consistency::ReleaseConsistency) {
        // The release fence: previously issued writes — including
        // those still in the FLWB — and, under CW, the write cache
        // contents must complete before the release issues (§2, §3.3).
        waitFlwbEmpty();
        drainDone = false;
        slc.drainWrites([this] {
            drainDone = true;
            if (waitingForDrain)
                resumeFiber();
        });
        if (!drainDone) {
            waitingForDrain = true;
            suspend();
            waitingForDrain = false;
        }
        breakdown.releaseStall += fabric.eq().now() - t0;
        sendProtocolMessage(fabric, self, home, msg_bytes::control,
                            [this, lock_addr, home] {
            fabric.locks(home).onRelease(lock_addr, self);
        }, MsgClass::Sync);
        sleepUntil(fabric.eq().now() + 1);
        return;
    }

    // SC: the release is a globally performed write to the lock.
    sendProtocolMessage(fabric, self, home, msg_bytes::control,
                        [this, lock_addr, home] {
        fabric.locks(home).onRelease(lock_addr, self);
    }, MsgClass::Sync);
    waitingForReleaseAck = true;
    suspend();
    waitingForReleaseAck = false;
    breakdown.releaseStall += fabric.eq().now() - t0 - 1;
}

void
Processor::waitFlwbEmpty()
{
    if (flwb.empty())
        return;
    waitingForFlwbEmpty = true;
    suspend();
}

void
Processor::releaseFence()
{
    if (params.consistency != Consistency::ReleaseConsistency)
        return;  // SC performs every write before proceeding
    Tick t0 = fabric.eq().now();
    waitFlwbEmpty();
    drainDone = false;
    slc.drainWrites([this] {
        drainDone = true;
        if (waitingForDrain)
            resumeFiber();
    });
    if (!drainDone) {
        waitingForDrain = true;
        suspend();
        waitingForDrain = false;
    }
    breakdown.releaseStall += fabric.eq().now() - t0;
}

void
Processor::onLockGrant(Addr lock_addr)
{
    if (!waitingForLock || lock_addr != awaitedLock)
        panic("unexpected lock grant for %llx at node %u",
              static_cast<unsigned long long>(lock_addr), self);
    resumeFiber();
}

void
Processor::onReleaseAck(Addr lock_addr)
{
    (void)lock_addr;
    if (waitingForReleaseAck)
        resumeFiber();
    // Under RC the processor does not wait for release acks.
}

} // namespace cpx
