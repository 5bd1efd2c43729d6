#pragma once
// Packets carried by the simulation.  A packet is created once by a traffic
// source and then moved through regulators, multiplexers and links; hop
// components only touch the timing fields they own.

#include <cstdint>

#include "util/inline_fn.hpp"
#include "util/types.hpp"

namespace emcast::sim {

struct Packet {
  std::uint64_t id = 0;       ///< unique per-simulation sequence number
  FlowId flow = -1;           ///< which (σ, ρ) flow this packet belongs to
  GroupId group = -1;         ///< multicast group (−1 for unicast)
  Bits size = 0;              ///< size in bits
  Time created = 0;           ///< source emission time
  Time hop_arrival = 0;       ///< arrival at the current hop (set per hop)
  std::uint32_t hops = 0;     ///< overlay hops traversed so far
  std::uint8_t priority = 0;  ///< general-MUX priority class (0 = highest)
  std::int32_t dest = -1;     ///< member index of the copy's target (for
                              ///< shared-uplink replication), −1 if unused

  /// End-to-end delay observed at time `now`.
  Time age(Time now) const { return now - created; }
};

/// Non-allocating packet callback used by the per-hop pipeline (source,
/// regulator, MUX and host sinks).  The capacity covers the captures the
/// hop components actually make — a handful of references plus an index;
/// a component needing more should capture a pointer to named state.
inline constexpr std::size_t kPacketFnCapacity = 56;
using PacketFn = util::InlineFn<void(Packet), kPacketFnCapacity>;

/// Monotonic packet-id allocator, one per simulation.
class PacketIdAllocator {
 public:
  std::uint64_t next() { return next_id_++; }

 private:
  std::uint64_t next_id_ = 0;
};

}  // namespace emcast::sim
