#pragma once
// The 16-byte POD record of the event engine's pending set (the calendar
// queue and the 4-ary heap inside it): an order-preserving
// integer image of the event time plus the packed (sequence, slot) word.
// The slot addresses the callback slab owned by the EventQueue; the
// sequence number doubles as the handle generation and as the
// deterministic tie-break for simultaneous events.

#include <bit>
#include <cstdint>

#include "util/types.hpp"

namespace emcast::sim {

/// Packed slot field: the low 24 bits, addressing 16.7M concurrently
/// pending events.
inline constexpr std::uint32_t kSlotShift = 24;
inline constexpr std::uint32_t kSlotMask = (1u << kSlotShift) - 1;

/// One pending event as the pending set sees it.  `seq_slot` is
/// (seq << 24) | slot, so a single 64-bit compare resolves time ties by
/// sequence number (seq dominates; seq_slot ties are impossible because
/// sequence numbers are unique).
struct PendingEntry {
  std::uint64_t time_key;  ///< order-preserving bit image of the time
  std::uint64_t seq_slot;  ///< (seq << 24) | slot — seq dominates ties
};
static_assert(sizeof(PendingEntry) == 16);

inline std::uint64_t entry_seq(const PendingEntry& e) {
  return e.seq_slot >> kSlotShift;
}
inline std::uint32_t entry_slot(const PendingEntry& e) {
  return static_cast<std::uint32_t>(e.seq_slot) & kSlotMask;
}

/// Order-preserving map from double to uint64: flip the sign bit for
/// non-negative values, flip all bits for negative ones.  -0.0 is
/// canonicalised to +0.0 first (the + 0.0 below) so the two zeros
/// compare as the tie they numerically are and fall through to the
/// sequence-number tie-break.
inline std::uint64_t time_key(Time t) {
  const auto u = std::bit_cast<std::uint64_t>(t + 0.0);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (u & kSign) ? ~u : (u | kSign);
}
inline Time key_time(std::uint64_t k) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return std::bit_cast<Time>((k & kSign) ? (k & ~kSign) : ~k);
}

/// Strict (time, seq) ordering — `a` fires before `b`.  Bitwise | and &
/// keep it branch-free; floating compares on random keys mispredict every
/// other sift step, two integer compares lower to cmovs.
inline bool entry_before(const PendingEntry& a, const PendingEntry& b) {
  return (a.time_key < b.time_key) |
         ((a.time_key == b.time_key) & (a.seq_slot < b.seq_slot));
}

}  // namespace emcast::sim
