#include "proto/lock_manager.hh"

#include "proto/messages.hh"
#include "proto/messenger.hh"
#include "sim/logging.hh"

namespace cpx
{

LockManager::LockManager(NodeId node, Fabric &f) : self(node), fabric(f)
{
}

void
LockManager::onAcquire(Addr lock_addr, NodeId from)
{
    ++acquireCount;
    const Tick arrived = fabric.eq().now();
    // The lock state lives in memory at the home node: charge one
    // memory access before acting.
    fabric.eq().scheduleIn(fabric.params().memAccessLatency,
                           [this, lock_addr, from, arrived] {
        LockState &ls = lockStates[lock_addr];
        if (!ls.held) {
            ls.held = true;
            ls.holder = from;
            grant(lock_addr, from, arrived);
        } else {
            ++queuedCount;
            ls.waiters.push_back(Waiter{from, arrived});
        }
    });
}

void
LockManager::onRelease(Addr lock_addr, NodeId from)
{
    ++releaseCount;
    fabric.eq().scheduleIn(fabric.params().memAccessLatency,
                           [this, lock_addr, from] {
        LockState &ls = lockStates[lock_addr];
        if (!ls.held || ls.holder != from)
            panic("release of lock %llx by non-holder node %u",
                  static_cast<unsigned long long>(lock_addr), from);
        CPX_PROBE(fabric, onLockRelease, self, lock_addr, from);

        // Acknowledge the releaser (the SC processor stalls on this).
        sendProtocolMessage(fabric, self, from, msg_bytes::control,
                            [this, lock_addr, from] {
            fabric.proc(from).onReleaseAck(lock_addr);
        }, MsgClass::Sync);

        if (ls.waiters.empty()) {
            ls.held = false;
            ls.holder = invalidNode;
        } else {
            // Queue-based handoff: grant directly to the next waiter.
            Waiter next = ls.waiters.front();
            ls.waiters.pop_front();
            ls.holder = next.node;
            grant(lock_addr, next.node, next.arrivedAt);
        }
    });
}

void
LockManager::grant(Addr lock_addr, NodeId to, Tick arrived_at)
{
    CPX_PROBE(fabric, onLockGrant, self, lock_addr, to, arrived_at,
              fabric.eq().now());
    sendProtocolMessage(fabric, self, to, msg_bytes::control,
                        [this, lock_addr, to] {
        fabric.proc(to).onLockGrant(lock_addr);
    }, MsgClass::Sync);
}

std::size_t
LockManager::heldLocks() const
{
    std::size_t n = 0;
    for (const auto &[addr, ls] : lockStates)
        if (ls.held)
            ++n;
    return n;
}

std::vector<LockManager::LockDump>
LockManager::heldLockDump() const
{
    std::vector<LockDump> dumps;
    for (const auto &[addr, ls] : lockStates)
        if (ls.held)
            dumps.push_back({addr, ls.holder, ls.waiters.size()});
    return dumps;
}

} // namespace cpx
