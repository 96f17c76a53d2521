/**
 * @file
 * Node-to-node message transmission with local resource charges.
 *
 * Every protocol message crosses the sender's local bus, the network,
 * and the receiver's local bus before its handler runs. Messages
 * between agents on the same node skip the network's hop latency but
 * still pay the bus (the network model charges a small local delay
 * and does not count local traffic in its byte totals).
 */

#ifndef CPX_PROTO_MESSENGER_HH
#define CPX_PROTO_MESSENGER_HH

#include <memory>
#include <utility>

#include "net/network.hh"
#include "proto/fabric.hh"

namespace cpx
{

namespace detail
{

/**
 * Per-message transmission state, threaded through the three delivery
 * stages (sender bus -> network -> receiver bus). One heap cell per
 * message: the stage lambdas capture only the owning pointer, which
 * keeps each of them small enough for the event queue's inline
 * callback storage — nesting the stages directly would capture the
 * previous stage's full-size callback and overflow it.
 */
struct MsgChain
{
    Fabric &fabric;
    NodeId src;
    NodeId dst;
    unsigned payload;
    Tick busXfer;
    MsgClass klass;
    std::uint64_t msgId;  //!< probe send/recv correlation (0 unprobed)
    EventQueue::Callback atDst;
};

} // namespace detail

/**
 * Send a protocol message.
 *
 * @param fabric  system wiring
 * @param src     sending node
 * @param dst     receiving node
 * @param payload payload bytes (header added by the network)
 * @param at_dst  handler to run when the message has crossed the
 *                receiver's bus
 */
inline void
sendProtocolMessage(Fabric &fabric, NodeId src, NodeId dst,
                    unsigned payload, EventQueue::Callback at_dst,
                    MsgClass klass = MsgClass::Request)
{
    EventQueue &eq = fabric.eq();
    const Tick bus_xfer = fabric.params().busTransferLatency;

    std::uint64_t msg_id = 0;
    if (ProbeStream *ps = fabric.probes()) {
        msg_id = ps->nextMsgId(src);
        ps->emit(&Probe::onMsgSend, src, dst, payload, klass, msg_id);
    }

    auto chain = std::make_unique<detail::MsgChain>(
        detail::MsgChain{fabric, src, dst, payload, bus_xfer, klass,
                         msg_id, std::move(at_dst)});

    Tick start = fabric.bus(src).reserve(eq.now(), bus_xfer);
    eq.schedule(start + bus_xfer, [c = std::move(chain)]() mutable {
        detail::MsgChain &m = *c;
        m.fabric.net().send(m.src, m.dst, m.payload,
                            [c = std::move(c)]() mutable {
            detail::MsgChain &m = *c;
            CPX_PROBE(m.fabric, onMsgRecv, m.src, m.dst, m.payload,
                      m.klass, m.msgId);
            Tick s = m.fabric.bus(m.dst).reserve(m.fabric.eq().now(),
                                                 m.busXfer);
            m.fabric.eq().schedule(s + m.busXfer, std::move(m.atDst));
        }, m.klass);
    });
}

} // namespace cpx

#endif // CPX_PROTO_MESSENGER_HH
