/**
 * @file
 * Fundamental scalar types shared by every cpx subsystem.
 *
 * The simulator counts time in processor clocks ("pclocks") of the
 * 100 MHz processors modelled by the paper (1 pclock = 10 ns). All
 * latency parameters elsewhere in the code base are expressed in
 * pclocks.
 */

#ifndef CPX_SIM_TYPES_HH
#define CPX_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace cpx
{

/** Simulated time, in processor clock cycles (pclocks). */
using Tick = std::uint64_t;

/** Sentinel for "no/unset time". */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** A physical/virtual address in the simulated shared address space. */
using Addr = std::uint64_t;

/** Identifier of a processor node (0 .. numNodes-1). */
using NodeId = std::uint32_t;

/** Sentinel node id. */
constexpr NodeId invalidNode = std::numeric_limits<NodeId>::max();

/**
 * Hard upper bound on the number of nodes in one simulated machine.
 * Everything that stores per-node membership (the directory's
 * sharer sets, trace records, mesh link tables) is sized against
 * this, and System construction rejects larger configurations.
 */
constexpr unsigned maxNodes = 256;

/** Number of bytes in one simulated machine word. */
constexpr unsigned wordBytes = 4;

} // namespace cpx

#endif // CPX_SIM_TYPES_HH
