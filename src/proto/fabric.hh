/**
 * @file
 * Wiring interface between the distributed protocol agents.
 *
 * Each node hosts an SLC controller, a directory controller (for the
 * memory homed there), a queue-based lock manager and a processor.
 * Agents address each other by NodeId through this interface; the
 * concrete System (src/core) implements it. This keeps the protocol
 * library free of a dependency on system assembly.
 */

#ifndef CPX_PROTO_FABRIC_HH
#define CPX_PROTO_FABRIC_HH

#include "mem/block.hh"
#include "obs/probe.hh"
#include "proto/params.hh"
#include "sim/event_queue.hh"
#include "sim/resource.hh"
#include "sim/types.hh"

namespace cpx
{

class Network;
class SlcController;
class DirectoryController;
class LockManager;
class BackingStore;

/**
 * The slice of the processor model the protocol layer calls back
 * into (lock grants / release acks). The concrete Processor lives in
 * src/node and implements this.
 */
class ProcessorIface
{
  public:
    virtual ~ProcessorIface() = default;

    /** The queue-based lock manager granted @p lock_addr to us. */
    virtual void onLockGrant(Addr lock_addr) = 0;

    /** The lock manager acknowledged our release (SC stalls on it). */
    virtual void onReleaseAck(Addr lock_addr) = 0;
};

class Fabric
{
  public:
    virtual ~Fabric() = default;

    virtual EventQueue &eq() = 0;
    virtual Network &net() = 0;
    virtual const AddressMap &amap() const = 0;
    virtual const MachineParams &params() const = 0;
    virtual BackingStore &store() = 0;

    virtual SlcController &slc(NodeId node) = 0;
    virtual DirectoryController &dir(NodeId node) = 0;
    virtual LockManager &locks(NodeId node) = 0;
    virtual ProcessorIface &proc(NodeId node) = 0;

    /** The node-local split-transaction bus. */
    virtual Resource &bus(NodeId node) = 0;

    /**
     * The probe stream, or nullptr while no probe is installed (the
     * usual case). Agents emit milestones through CPX_PROBE
     * (src/obs/probe.hh), which reduces to this one null check.
     */
    ProbeStream *probes() { return probes_; }

    /** Append @p probe: it sees every milestone after the probes
     *  installed before it. */
    void
    installProbe(Probe *probe)
    {
        probes_ = stream.install(probe, params().numProcs);
    }

    /** Uninstall @p probe (no-op if it is not installed). */
    void removeProbe(const Probe *probe) { probes_ = stream.remove(probe); }

  private:
    ProbeStream stream;
    ProbeStream *probes_ = nullptr;
};

} // namespace cpx

#endif // CPX_PROTO_FABRIC_HH
