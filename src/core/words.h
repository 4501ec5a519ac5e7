// Word-level mask utilities.
//
// A ProcessSet is one 64-bit word plus the system size; every hot path
// (the engine's round loop, the predicates' incremental evaluators, the
// submodel DFS) works on those words directly, and FaultPattern stores a
// round as n of them (DESIGN.md "Word arenas").
#pragma once

#include <bit>
#include <cstdint>

#include "core/types.h"
#include "util/check.h"

namespace rrfd::core {

/// The representation the submodel DFS walks. A round has exactly one
/// representation, n uint64_t words; the enumerator survives only so
/// that EnumOptions::path keeps accepting its one legal value.
enum class EnginePath : std::uint8_t {
  kWord = 0,  ///< n uint64_t words per round
};

/// The mask of S = {0..n-1} as a raw word (ProcessSet::all(n).bits()
/// without constructing the set).
inline std::uint64_t full_mask(int n) {
  RRFD_ASSERT(0 < n && n <= kMaxProcesses);
  return (n == kMaxProcesses) ? ~std::uint64_t{0}
                              : ((std::uint64_t{1} << n) - 1);
}

/// k-th set bit of `bits` (0-based, increasing order). Requires
/// k < popcount(bits). The allocation-free analogue of members()[k].
inline int nth_set_bit(std::uint64_t bits, int k) {
  RRFD_ASSERT(k >= 0 && k < std::popcount(bits));
  for (; k > 0; --k) bits &= bits - 1;  // drop the k lowest members
  return std::countr_zero(bits);
}

}  // namespace rrfd::core
