// Canonical rounds for the exact checks' process-renaming symmetry
// reduction. Private to core: submodel.cpp walks these tables, and the
// tests hold them against a lex-min oracle built on permute().
//
// A round is canonical under a group H of renamings when it is
// lexicographically minimal in its H-orbit (its D(0), ..., D(n-1) words
// compared in order). Two kinds of table use that one rule:
//
//  * The canonical first rounds, under all of S_n. The shards expand only
//    these, each weighted by its orbit.
//  * One table per subgroup H of S_n. The memo seed pass expands a state's
//    next round once per orbit of the group that fixes the state's key
//    (DESIGN.md, "Suffix memoization"), so it needs H-canonical rounds for
//    whichever H a check's states have.
//
// Which rounds are canonical, and their orbit sizes, depend only on n and
// H. So each table is built once per process, on first use, behind its
// own std::once_flag, and is read-only afterwards; a check builds only
// the subgroup tables its states ask for.
#pragma once

#include <algorithm>
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

/// A set of renamings: bit p stands for CanonicalRoots::perms[p]. n! is
/// at most 24, so one word holds any subgroup of S_n.
using PermMask = std::uint32_t;

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
  /// Every subgroup of S_n, ascending: 1, 2, 6 and 30 of them for n = 1
  /// to 4. Subgroup 0 is the trivial one, {identity}.
  std::vector<PermMask> subgroups;

  /// Group s of by_shard.
  std::span<const CanonicalRoot> shard(int s) const {
    const auto i = static_cast<std::size_t>(s);
    return std::span(by_shard).subspan(shard_begin[i],
                                       shard_begin[i + 1] - shard_begin[i]);
  }

  /// Index in `subgroups` of the subgroup that `members` generates: the
  /// intersection of every subgroup that contains it.
  std::size_t generated(PermMask members) const {
    PermMask closure = ~PermMask{0};
    for (const PermMask h : subgroups) {
      if ((h & members) == members) closure &= h;
    }
    return static_cast<std::size_t>(
        std::lower_bound(subgroups.begin(), subgroups.end(), closure) -
        subgroups.begin());
  }
};

/// The rounds canonical under one subgroup H of S_n, in ascending index
/// (the odometer order, process 0's word varying fastest).
struct SubgroupRounds {
  /// A round's D(0..n-1) words, 4 bits each: D(i) is bits 4i .. 4i + 3.
  std::vector<std::uint16_t> rounds;
  /// Size of each round's H-orbit: |H| over the renamings in H that fix it.
  std::vector<std::uint8_t> orbits;
};

/// The table for n, 1 <= n <= kMaxSymmetryProcesses. Thread-safe: the
/// first call for an n builds it, and concurrent callers wait for it.
const CanonicalRoots& canonical_roots(int n);

/// The table of canonical_roots(n).subgroups[s]. Thread-safe like
/// canonical_roots: the first call for a subgroup builds its table, and
/// concurrent callers wait for it. At n = 4 the trivial subgroup's table
/// lists all 50625 rounds; the seed pass never asks for it.
const SubgroupRounds& subgroup_rounds(int n, std::size_t s);

}  // namespace rrfd::core::detail
