/**
 * @file
 * Processor model: a standard blocking-load processor (§2).
 *
 * Workload code runs natively on a cooperative fiber; every *shared*
 * memory access calls into this class, which charges simulated time
 * and suspends the fiber until the access completes. Instructions and
 * private data are charged through compute() — the same modelling
 * contract as the paper's CacheMire methodology (§4: "we simulate all
 * instructions and private data references as if they always hit in
 * the FLC").
 *
 * Consistency models:
 *  - SC: every shared read and write stalls the processor until it is
 *    globally performed (§5.2).
 *  - RC: writes retire into the FLWB/SLWB and overlap with
 *    computation; the processor stalls only on reads, acquires, full
 *    write buffers, and at releases until pending ownership/update
 *    requests complete (§2, §5.1).
 *
 * Execution-time decomposition (busy / read stall / write stall /
 * acquire stall / release stall) is accounted here, matching the bar
 * charts of Figures 2 and 3.
 */

#ifndef CPX_NODE_PROCESSOR_HH
#define CPX_NODE_PROCESSOR_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "fiber/fiber.hh"
#include "mem/flc.hh"
#include "proto/fabric.hh"
#include "proto/slc.hh"
#include "sim/stats.hh"

namespace cpx
{

class MetricRegistry;

class Processor : public ProcessorIface
{
  public:
    Processor(NodeId node, Fabric &fabric, SlcController &slc,
              Flc &flc);

    NodeId id() const { return self; }

    // --- lifecycle -----------------------------------------------------------
    /**
     * Create the fiber and schedule it to begin at the current tick.
     * @p body is the workload's per-processor function.
     */
    void start(std::function<void()> body);

    bool finished() const { return done; }
    Tick finishTick() const { return finishTick_; }

    // --- workload API (fiber context only) ---------------------------------
    std::uint32_t read32(Addr a);
    std::uint64_t read64(Addr a);
    double readDouble(Addr a);

    void write32(Addr a, std::uint32_t v);
    void write64(Addr a, std::uint64_t v);
    void writeDouble(Addr a, double v);

    /** Charge @p cycles pclocks of local computation. */
    void compute(Tick cycles);

    /**
     * Software prefetch instruction ([9]): non-binding and
     * non-blocking; costs one issue cycle. @p exclusive requests a
     * read-exclusive copy for blocks about to be written.
     */
    void prefetch(Addr a, bool exclusive = false);

    /** Acquire the queue-based lock at @p lock_addr. */
    void lock(Addr lock_addr);

    /**
     * Release the lock at @p lock_addr. Under RC this first drains
     * pending ownership/update requests (the release fence).
     */
    void unlock(Addr lock_addr);

    /**
     * Stand-alone release fence: under RC, stall until all pending
     * ownership/update requests (including write-cache contents)
     * have performed. Labelled release writes — e.g. a barrier's
     * sense flip — must be followed by this, or under CW they could
     * linger in the write cache indefinitely. No-op under SC.
     */
    void releaseFence();

    // --- ProcessorIface -------------------------------------------------------
    void onLockGrant(Addr lock_addr) override;
    void onReleaseAck(Addr lock_addr) override;

    // --- statistics -----------------------------------------------------------
    struct TimeBreakdown
    {
        Tick busy = 0;
        Tick readStall = 0;
        Tick writeStall = 0;
        Tick acquireStall = 0;
        Tick releaseStall = 0;

        Tick
        total() const
        {
            return busy + readStall + writeStall + acquireStall +
                   releaseStall;
        }
    };

    const TimeBreakdown &times() const { return breakdown; }

    /**
     * Register the execution-time decomposition components as
     * interval metrics under @p prefix (e.g. "node3"), so phase
     * reports can show per-interval stall composition (DESIGN.md
     * §13).
     */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    std::uint64_t sharedReads() const { return statReads.value(); }
    std::uint64_t sharedWrites() const { return statWrites.value(); }
    std::uint64_t sharedAccesses() const {
        return statReads.value() + statWrites.value();
    }
    std::uint64_t lockAcquires() const { return statLocks.value(); }

  private:
    /** Schedule a wake-up at @p when and suspend the fiber. */
    void sleepUntil(Tick when);

    /** Suspend the fiber until resumeFiber() is called. */
    void suspend();

    /**
     * Resume the fiber. @p tail says the caller is an event whose
     * last action this is (start, wake, FLC fill), which lets the
     * fiber's next sleepUntil() elide its wake event.
     */
    void resumeFiber(bool tail = false);

    /** Timed read of one word-aligned location. */
    void timeRead(Addr a);

    /**
     * Store-to-load forwarding: the newest FLWB write covering the
     * word at @p a, if any. Real hardware forwards from the write
     * buffer (and updates the write-through FLC at issue); without
     * this a processor could miss its own buffered writes.
     */
    bool forwardFromFlwb(Addr a, std::uint32_t &value) const;

    /** Word value as this processor sees it right now. */
    std::uint32_t localWord(Addr a) const;

    /** Timed write; the value travels into the memory system. */
    void timeWrite(Addr a, std::uint64_t value, unsigned bytes);

    /** FLWB pump: issue the head operation to the SLC. */
    void pumpFlwb();

    /**
     * Fiber-side: wait until the FLWB has drained into the SLC.
     * A release is ordered behind earlier writes in the buffers, so
     * the fence must not overtake writes still in the FLWB.
     */
    void waitFlwbEmpty();

    NodeId self;
    Fabric &fabric;
    const MachineParams &params;
    SlcController &slc;
    Flc &flc;

    std::unique_ptr<Fiber> fiber;
    bool tailResumed = false;   //!< set by the last resumeFiber()
    bool done = false;
    Tick finishTick_ = 0;

    struct FlwbOp
    {
        bool isRead;
        Addr addr;
        std::uint64_t value;
        unsigned bytes;
    };

    std::deque<FlwbOp> flwb;
    bool flwbBusy = false;      //!< a write is being retired by the SLC
    bool waitingForSlot = false;
    bool waitingForFlwbEmpty = false;

    Addr awaitedLock = 0;
    bool waitingForLock = false;
    bool waitingForReleaseAck = false;
    bool drainDone = false;
    bool waitingForDrain = false;
    bool readDone = false;
    bool waitingForRead = false;
    bool writeDone = false;
    bool waitingForWrite = false;

    TimeBreakdown breakdown;
    Counter statReads;
    Counter statWrites;
    Counter statLocks;
};

} // namespace cpx

#endif // CPX_NODE_PROCESSOR_HH
