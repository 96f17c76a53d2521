/**
 * @file
 * Trace-replay workload: drive the simulator from a recorded memory
 * reference trace instead of a program.
 *
 * The trace format is line-oriented text, one event per line:
 *
 *   # comment
 *   <proc> r <addr>          timed 32-bit read
 *   <proc> w <addr> <value>  timed 32-bit write
 *   <proc> c <cycles>        local computation
 *   <proc> l <lock-index>    acquire lock #index
 *   <proc> u <lock-index>    release lock #index
 *   <proc> b                 global barrier
 *
 * Addresses are hex offsets into a trace-owned shared region; locks
 * are allocated by index on first use. verify() checks that every
 * word written by exactly one processor holds its last written value.
 * A trace file replays through makeWorkload("trace:PATH").
 *
 * This is the entry point for replaying references captured from a
 * real application (the paper's methodology is program-driven, but
 * trace replay is the standard fallback when only traces exist).
 */

#ifndef CPX_WORKLOADS_TRACE_HH
#define CPX_WORKLOADS_TRACE_HH

#include <memory>
#include <string>
#include <vector>

#include "workloads/barrier.hh"
#include "workloads/workload.hh"

namespace cpx
{

/** One parsed trace event. */
struct TraceEvent
{
    enum class Kind
    {
        Read,
        Write,
        Compute,
        Lock,
        Unlock,
        Barrier,
    };

    Kind kind;
    Addr addr = 0;           //!< region offset (Read/Write)
    std::uint32_t value = 0; //!< Write
    Tick cycles = 0;         //!< Compute
    unsigned lockIndex = 0;  //!< Lock/Unlock
};

class TraceWorkload : public Workload
{
  public:
    /**
     * @param text       the whole trace (see format above)
     * @param region_len bytes of shared data addressed by the trace;
     *                   0 sizes it from the highest address touched
     */
    explicit TraceWorkload(const std::string &text,
                           std::size_t region_len = 0);

    std::string name() const override { return "trace"; }
    void setup(System &sys) override;
    void parallel(Processor &p, unsigned id) override;
    bool verify(System &sys) override;

    /** Base address of the trace's shared region after setup(). */
    Addr regionBase() const { return region; }

  private:
    std::size_t regionLen;
    std::vector<std::vector<TraceEvent>> perProc;
    std::vector<Addr> lockAddrs;
    unsigned maxLockIndex = 0;
    Addr region = 0;
    SimBarrier barrier;
    unsigned numProcs = 0;
};

/** Parse a trace; fatal() on malformed input. */
std::vector<std::pair<unsigned, TraceEvent>>
parseTrace(const std::string &text);

/** Replay the trace file at @p path; fatal() if it cannot be read. */
std::unique_ptr<Workload> makeTraceFile(const std::string &path);

} // namespace cpx

#endif // CPX_WORKLOADS_TRACE_HH
