// Canonical first rounds for the exact checks' process-renaming symmetry
// reduction. Private to core: submodel.cpp walks these tables, and the
// tests hold them against a per-root lex-min oracle.
//
// A first round is canonical when it is lexicographically minimal among
// its n! renamings (its D(0,1), ..., D(n-1,1) words compared in order).
// Which rounds are canonical, and their orbit sizes, depend only on n, so
// each n's table is built once per process, on first use, and is
// read-only afterwards.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rrfd::core::detail {

/// Largest n the exact checks reduce by process renaming: Symmetry::kAuto
/// reduces up to it and Symmetry::kOn refuses beyond it. Building a table
/// scans all (2^n - 1)^n first rounds once: 50625 at n = 4, but
/// 2.9 * 10^7 at n = 5.
inline constexpr int kMaxSymmetryProcesses = 4;

/// One renaming pi, tabulated for O(1) application to a D-set mask and to
/// an observer index.
struct PermTable {
  std::vector<int> inverse;             ///< inverse[j] = pi^-1(j)
  std::vector<std::uint64_t> mask_map;  ///< mask_map[m] = pi(m)
};

/// A canonical first round.
struct CanonicalRoot {
  /// Index in the exact checks' root order: digit i is D(i,1)'s word,
  /// process 0's digit varying fastest.
  std::int64_t index;
  std::int64_t orbit;  ///< number of distinct renamings: n! / |stabilizer|
  std::array<std::uint8_t, kMaxSymmetryProcesses> digits;  ///< D(i,1) words
};

/// What renaming symmetry needs at one n.
struct CanonicalRoots {
  std::vector<PermTable> perms;          ///< all n! renamings, identity first
  std::vector<CanonicalRoot> ascending;  ///< every canonical root, by index
  /// The same roots grouped by the shard that expands them (index modulo
  /// the shard count), ascending within each group. Group s is
  /// by_shard[shard_begin[s] .. shard_begin[s + 1]).
  std::vector<CanonicalRoot> by_shard;
  std::vector<std::size_t> shard_begin;

  /// Group s of by_shard.
  std::span<const CanonicalRoot> shard(int s) const {
    const auto i = static_cast<std::size_t>(s);
    return std::span(by_shard).subspan(shard_begin[i],
                                       shard_begin[i + 1] - shard_begin[i]);
  }
};

/// The table for n, 1 <= n <= kMaxSymmetryProcesses. Thread-safe: the
/// first call for an n builds it, and concurrent callers wait for it.
const CanonicalRoots& canonical_roots(int n);

}  // namespace rrfd::core::detail
