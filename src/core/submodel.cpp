#include "core/submodel.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <limits>
#include <mutex>
#include <numeric>
#include <span>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/canonical_roots.h"
#include "util/check.h"
#include "util/json.h"

namespace rrfd::core {
namespace {

// ---------------------------------------------------------------------------
// Space arithmetic
// ---------------------------------------------------------------------------

/// (2^n - 1)^digits, or nullopt when it overflows int64.
std::optional<std::int64_t> checked_space(int n, std::int64_t digits) {
  if (n >= 63) return std::nullopt;  // the digit base itself overflows
  const std::int64_t v = (std::int64_t{1} << n) - 1;
  std::int64_t space = 1;
  for (std::int64_t d = 0; d < digits; ++d) {
    if (space > std::numeric_limits<std::int64_t>::max() / v) {
      return std::nullopt;
    }
    space *= v;
  }
  return space;
}

void require_representable(int n, Round rounds) {
  RRFD_REQUIRE(0 < n && n <= kMaxProcesses);
  RRFD_REQUIRE(rounds >= 1);
  RRFD_REQUIRE_MSG(
      checked_space(n, static_cast<std::int64_t>(n) * rounds).has_value(),
      "pattern space (2^n - 1)^(n * rounds) exceeds int64 -- not "
      "exhaustively checkable");
}

// ---------------------------------------------------------------------------
// Naive reference sweep
// ---------------------------------------------------------------------------

/// Odometer over the pattern space: each "digit" is one D(i,r), ranging
/// over masks 0 .. 2^n - 2 (the full set is structurally excluded).
class PatternOdometer {
 public:
  PatternOdometer(int n, Round rounds)
      : n_(n),
        digits_(static_cast<std::size_t>(n) * static_cast<std::size_t>(rounds),
                0),
        max_mask_((n == kMaxProcesses
                       ? ~std::uint64_t{0}
                       : ((std::uint64_t{1} << n) - 1)) -
                  1) {}

  FaultPattern current() const {
    FaultPattern p(n_);
    const int rounds = static_cast<int>(digits_.size()) / n_;
    std::size_t idx = 0;
    for (Round r = 0; r < rounds; ++r) {
      RoundFaults round;
      round.reserve(static_cast<std::size_t>(n_));
      for (ProcId i = 0; i < n_; ++i) {
        round.push_back(ProcessSet::from_bits(n_, digits_[idx++]));
      }
      p.append(std::move(round));
    }
    return p;
  }

  /// Advances to the next pattern; false when wrapped around.
  bool advance() {
    for (std::size_t d = 0; d < digits_.size(); ++d) {
      if (digits_[d] < max_mask_) {
        ++digits_[d];
        return true;
      }
      digits_[d] = 0;
    }
    return false;
  }

 private:
  int n_;
  std::vector<std::uint64_t> digits_;
  std::uint64_t max_mask_;
};

// ---------------------------------------------------------------------------
// Process-permutation symmetry
// ---------------------------------------------------------------------------

using detail::CanonicalRoot;
using detail::CanonicalRoots;
using detail::PermMask;
using detail::PermTable;

/// Shards per search: fixed by the root count, never by the thread count.
int shard_count(std::int64_t total_roots) {
  return static_cast<int>(std::min<std::int64_t>(total_roots, 256));
}

/// Writes the odometer digits of first-round index k -- the D(i,1) words,
/// process 0's digit varying fastest -- to d[0 .. n).
void decode_root(std::int64_t k, int n, std::int64_t v, std::uint64_t* d) {
  for (int i = 0; i < n; ++i) {
    // Divide before the store: a store in between keeps the compiler
    // from fusing % and / into one division.
    const std::int64_t digit = k % v;
    k /= v;
    d[i] = static_cast<std::uint64_t>(digit);
  }
}

/// The D(j,1) words of first round d renamed by p: D'(pi(i)) = pi(D(i)).
void rename_round(const PermTable& p, const std::uint64_t* d, int n,
                  std::uint64_t* out) {
  for (int j = 0; j < n; ++j) {
    out[j] = p.mask_map[static_cast<std::size_t>(
        d[p.inverse[static_cast<std::size_t>(j)]])];
  }
}

std::vector<PermTable> build_perm_tables(int n) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<PermTable> tables;
  do {
    PermTable t;
    t.inverse.assign(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      t.inverse[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
          i;
    }
    const std::int64_t n_masks = std::int64_t{1} << n;
    t.mask_map.assign(static_cast<std::size_t>(n_masks), 0);
    for (std::int64_t m = 0; m < n_masks; ++m) {
      std::uint64_t image = 0;
      for (int i = 0; i < n; ++i) {
        if ((m >> i) & 1) {
          image |= std::uint64_t{1} << perm[static_cast<std::size_t>(i)];
        }
      }
      t.mask_map[static_cast<std::size_t>(m)] = image;
    }
    tables.push_back(std::move(t));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return tables;
}

/// The index of round d, decode_root's inverse.
std::size_t round_index(const std::uint64_t* d, int n, std::uint64_t v) {
  std::size_t k = 0;
  for (int i = n - 1; i >= 0; --i) k = k * v + d[i];
  return k;
}

/// Every subgroup of the group `perms`, as ascending membership masks.
/// Each subgroup of S_n for n <= 4 is generated by two of its elements,
/// so closing every pair finds them all.
std::vector<PermMask> build_subgroups(const std::vector<PermTable>& perms,
                                      int n) {
  const std::size_t k = perms.size();
  const auto image = [&perms](std::size_t p, int i) {
    return std::countr_zero(perms[p].mask_map[std::size_t{1} << i]);
  };
  // product[a * k + b]: the index of perms[a] after perms[b].
  std::vector<std::size_t> product(k * k);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      for (std::size_t c = 0; c < k; ++c) {
        bool same = true;
        for (int i = 0; i < n && same; ++i) {
          same = image(c, i) == image(a, image(b, i));
        }
        if (same) product[a * k + b] = c;
      }
    }
  }
  const auto close = [&](PermMask m) {
    for (;;) {
      PermMask next = m;
      for (PermMask x = m; x != 0; x &= x - 1) {
        const auto a = static_cast<std::size_t>(std::countr_zero(x));
        for (PermMask y = m; y != 0; y &= y - 1) {
          const auto b = static_cast<std::size_t>(std::countr_zero(y));
          next |= PermMask{1} << product[a * k + b];
        }
      }
      if (next == m) return m;
      m = next;
    }
  };
  std::vector<PermMask> groups;
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a; b < k; ++b) {
      groups.push_back(close(PermMask{1} | PermMask{1} << a |
                             PermMask{1} << b));
    }
  }
  std::sort(groups.begin(), groups.end());
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
  return groups;
}

/// Calls visit(k, d, orbit) on every round k, in ascending index, that is
/// canonical under the renamings in `members` (lexicographically minimal
/// in its orbit, D(0) compared first); d holds its words. `members` must
/// be a group that contains the identity, as build_subgroups makes them.
/// Its orbits then partition the rounds, so one walk in lexicographic
/// order meets each orbit first at its canonical round, which marks the
/// rest of the orbit and counts it.
template <typename Visit>
void for_each_canonical(const std::vector<PermTable>& perms, PermMask members,
                        int n, const Visit& visit) {
  const std::uint64_t v = (std::uint64_t{1} << n) - 1;  // the digit base
  const auto digits = static_cast<std::size_t>(n);
  // orbit[k]: 0 until round k is reached, then the orbit size if k is
  // canonical, else -1.
  std::vector<std::int8_t> orbit(
      static_cast<std::size_t>(*checked_space(n, n)));
  std::array<std::uint64_t, detail::kMaxSymmetryProcesses> d{};
  std::array<std::uint64_t, detail::kMaxSymmetryProcesses> image{};
  for (;;) {
    std::int8_t& here = orbit[round_index(d.data(), n, v)];
    if (here == 0) {
      std::int8_t size = 0;
      for (PermMask rest = members; rest != 0; rest &= rest - 1) {
        rename_round(perms[static_cast<std::size_t>(std::countr_zero(rest))],
                     d.data(), n, image.data());
        std::int8_t& seen = orbit[round_index(image.data(), n, v)];
        if (seen == 0) {
          seen = -1;
          ++size;
        }
      }
      here = size;
    }
    // The next round in lexicographic order: D(n - 1) varies fastest.
    std::size_t i = digits;
    while (i > 0 && ++d[i - 1] == v) d[--i] = 0;
    if (i == 0) break;
  }
  // Index order, D(0) varying fastest; d wrapped back to all zeros.
  for (std::size_t k = 0; k < orbit.size(); ++k) {
    if (orbit[k] > 0) visit(static_cast<std::int64_t>(k), d, orbit[k]);
    for (std::size_t i = 0; i < digits && ++d[i] == v; ++i) d[i] = 0;
  }
}

CanonicalRoots build_canonical_roots(int n) {
  CanonicalRoots t;
  t.perms = build_perm_tables(n);
  t.subgroups = build_subgroups(t.perms, n);
  for_each_canonical(
      t.perms, t.subgroups.back(), n,
      [&t, n](std::int64_t k, const auto& d, std::int64_t orbit) {
        CanonicalRoot root{k, orbit, {}};
        for (int i = 0; i < n; ++i) {
          root.digits[static_cast<std::size_t>(i)] =
              static_cast<std::uint8_t>(d[static_cast<std::size_t>(i)]);
        }
        t.ascending.push_back(root);
      });
  // Group by shard; the stable sort keeps each group ascending.
  const int shards = shard_count(*checked_space(n, n));
  const auto shard_of = [shards](const CanonicalRoot& r) {
    return static_cast<std::size_t>(r.index % shards);
  };
  t.by_shard = t.ascending;
  std::stable_sort(t.by_shard.begin(), t.by_shard.end(),
                   [&](const CanonicalRoot& x, const CanonicalRoot& y) {
                     return shard_of(x) < shard_of(y);
                   });
  t.shard_begin.assign(static_cast<std::size_t>(shards) + 1, 0);
  for (const CanonicalRoot& r : t.ascending) ++t.shard_begin[shard_of(r) + 1];
  std::partial_sum(t.shard_begin.begin(), t.shard_begin.end(),
                   t.shard_begin.begin());
  return t;
}

/// The rounds canonical under the subgroup `members` of `perms`, with
/// their orbit sizes.
detail::SubgroupRounds build_subgroup_rounds(
    const std::vector<PermTable>& perms, int n, PermMask members) {
  detail::SubgroupRounds t;
  for_each_canonical(
      perms, members, n,
      [&t, n](std::int64_t, const auto& d, std::int64_t orbit) {
        std::uint16_t packed = 0;
        for (int i = 0; i < n; ++i) {
          packed = static_cast<std::uint16_t>(
              packed | d[static_cast<std::size_t>(i)] << (4 * i));
        }
        t.rounds.push_back(packed);
        t.orbits.push_back(static_cast<std::uint8_t>(orbit));
      });
  return t;
}

// ---------------------------------------------------------------------------
// Suffix-count memoization
// ---------------------------------------------------------------------------

/// Exact work profile of one completed suffix subtree: how many nodes,
/// leaves, and pruned inner nodes the plain DFS spends below a node in
/// that evaluator state. The deltas are orbit-independent (orbit weights
/// only scale patterns_decided, which a hit recomputes from leaves_below),
/// so one entry serves every node that reaches the same state. Entries
/// exist *only* for subtrees the DFS completed without finding a
/// counterexample or exhausting the budget -- a hit therefore also proves
/// "no counterexample below", which is what keeps refutation order and
/// budget reporting identical to the unmemoized search.
struct MemoEntry {
  std::int64_t nodes;
  std::int64_t leaves;
  std::int64_t pruned_subtrees;
};

/// FNV-1a over the canonical key bytes.
struct MemoKeyHash {
  std::size_t operator()(const std::vector<std::uint8_t>& key) const noexcept {
    return static_cast<std::size_t>(fnv1a(std::string_view(
        reinterpret_cast<const char*>(key.data()), key.size())));
  }
};

using MemoTable =
    std::unordered_map<std::vector<std::uint8_t>, MemoEntry, MemoKeyHash>;
using MemoKeySet = std::unordered_set<std::vector<std::uint8_t>, MemoKeyHash>;

/// States below this many distinct depth-1 entries are worth seeding
/// serially before the shards run (see ShardWorker::run_seed).
constexpr std::int64_t kMaxSeedEntries = 4096;
/// Seed pass root-count gate: walking every root serially must stay a
/// negligible fraction of the total work.
constexpr std::int64_t kMaxSeedRoots = std::int64_t{1} << 20;

/// Writes the joint state of an A and a B evaluator into `key`. An
/// evaluator retired by a kSatisfiedForever promise is absorbing -- it
/// sees no pushes below that depth -- so a tag byte replaces whatever
/// state it froze at. A's part is length-prefixed so the concatenation
/// with B's stays unambiguous; B's runs to the end of the buffer. Rounds
/// remaining is *not* part of the key: tables are indexed by it instead.
/// False when an evaluator is keyless.
bool compose_key(const StepEvaluator& a, bool a_retired,
                 const StepEvaluator& b, bool b_retired,
                 std::vector<std::uint8_t>& key) {
  key.clear();
  if (a_retired) {
    statekey::append_u8(key, 0xFF);
  } else {
    statekey::append_u8(key, 0x01);
    const std::size_t pos = statekey::begin_length_prefix(key);
    if (!a.state_bytes(key)) return false;
    statekey::end_length_prefix(key, pos);
  }
  if (b_retired) {
    statekey::append_u8(key, 0xFF);
  } else {
    statekey::append_u8(key, 0x01);
    if (!b.state_bytes(key)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Pruned, sharded DFS
// ---------------------------------------------------------------------------

/// Immutable description of one implication search, shared by all shards.
struct SearchSpec {
  const Predicate& a;
  const Predicate& b;
  int n;
  Round rounds;
  std::int64_t v;  ///< digit base 2^n - 1
  bool prune_a;    ///< cut subtrees on A kViolatedForever
  bool prune_b;    ///< cut subtrees on B kSatisfiedForever
  std::int64_t node_budget;
  /// leaves_below[d] = v^(n * (rounds - d)): complete patterns under one
  /// depth-d node.
  std::vector<std::int64_t> leaves_below;
  /// Canonical first rounds at n when symmetry reduction is on, else
  /// null: then every first round is expanded with orbit 1.
  const CanonicalRoots* roots = nullptr;
  /// Suffix-count memoization requested (Memo::kAuto with rounds >= 2).
  /// Each worker still probes evaluator keyability and quietly runs the
  /// plain DFS when either evaluator is keyless.
  bool use_memo = false;
  /// Depth-1 entries shared by all shards, filled by the serial seed
  /// pass; null when seeding was skipped or produced nothing.
  const MemoTable* seed = nullptr;
};

/// What one shard reports back; merged strictly in shard order.
struct ShardOutcome {
  EnumStats stats;
  std::optional<FaultPattern> counterexample;
  bool budget_exceeded = false;
  bool ran = false;
};

/// Seed-pass outcome per renaming class of a state (nullopt: poisoned).
using ClassTable =
    std::unordered_map<std::vector<std::uint8_t>, std::optional<MemoEntry>,
                       MemoKeyHash>;

/// What only the seed pass keeps. run_seed allocates it; a shard worker,
/// built once per shard, never does.
struct SeedPass {
  MemoTable* out = nullptr;  ///< the published depth-1 table
  MemoKeySet poisoned;       ///< depth-1 states with a contained event
  /// Outcome per renaming class, indexed by depth. Below depth 1 only
  /// completed subtrees are kept: an event there poisons depth 1.
  std::vector<ClassTable> classes;
  /// Scratch evaluators that key renamed prefixes.
  std::unique_ptr<StepEvaluator> rename_a;
  std::unique_ptr<StepEvaluator> rename_b;
};

/// Depth-first search over one strided set of first-round indices. Owns
/// its evaluators, buffers, and counters -- shards share nothing mutable
/// (counters are published into the outcome once, at the end of run(),
/// so parallel shards never write neighbouring cache lines per node).
class ShardWorker {
 public:
  ShardWorker(const SearchSpec& spec, ShardOutcome& out)
      : spec_(spec),
        out_(out),
        a_eval_(spec.a.evaluator()),
        b_eval_(spec.b.evaluator()) {
    digits_.resize(static_cast<std::size_t>(spec.rounds) + 1);
    for (Round d = 0; d <= spec.rounds; ++d) {
      digits_[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(spec.n), 0);
    }
  }

  /// Expands shard `shard` of `n_shards`: the first rounds whose index
  /// is shard modulo n_shards, in ascending index (only the canonical
  /// ones under symmetry). Strided rather than contiguous, because
  /// canonical first rounds are lexicographically minimal and therefore
  /// cluster at low indices; a contiguous split would hand nearly all
  /// expansion work to the first few shards.
  void run(int shard, int n_shards, std::int64_t total) {
    a_eval_->begin(spec_.n, spec_.rounds);
    b_eval_->begin(spec_.n, spec_.rounds);
    init_memo();
    const auto expand = [this](std::int64_t orbit) {
      ++stats_.expanded_roots;
      return descend(1, orbit);  // false: counterexample or budget
    };
    if (spec_.roots != nullptr) {
      walk_roots(spec_.roots->shard(shard), expand);
    } else {
      walk_roots(shard, n_shards, total, expand);
    }
    out_.stats = stats_;
    out_.counterexample = std::move(counterexample_);
    out_.budget_exceeded = budget_exceeded_;
    out_.ran = true;
  }

  /// Serial seed pass, run once before the shards: walks every root in
  /// index order and explores each *distinct* depth-1 evaluator state's
  /// subtree exactly once, publishing the resulting entries into `seed`
  /// for all shards to share. Root-level states repeat across shards
  /// (each shard sees only a strided slice of the repeats), so per-shard
  /// tables alone leave most of the redundancy on the table -- this pass
  /// is what makes the repeated-state workloads collapse. Purely an
  /// optimization: every published entry holds the exact unmemoized work
  /// profile, so shard statistics are unchanged. A subtree holding a
  /// counterexample or exceeding the node budget is *not* published (the
  /// key is poisoned instead): the owning shard replays it with the plain
  /// DFS and reports the event with exactly the unmemoized order, partial
  /// counts, and shard attribution. Under symmetry each renaming class of
  /// states is explored once, one next round per orbit of the state's
  /// group, at every depth (see seed_state). All seed-pass statistics,
  /// events, and evaluator state are contained here and discarded.
  void run_seed(MemoTable& seed, std::int64_t total) {
    a_eval_->begin(spec_.n, spec_.rounds);
    b_eval_->begin(spec_.n, spec_.rounds);
    init_memo();
    if (!memo_on_) return;
    seed_ = std::make_unique<SeedPass>();
    seed_->out = &seed;
    const auto probe = [this](std::int64_t orbit) {
      // Fresh counters per root: the budget window and any recorded
      // events must not leak from one probed subtree into the next.
      stats_ = EnumStats{};
      budget_exceeded_ = false;
      counterexample_.reset();
      descend(1, orbit);
      return true;
    };
    if (spec_.roots != nullptr) {
      seed_->classes.resize(static_cast<std::size_t>(spec_.rounds));
      seed_->rename_a = spec_.a.evaluator();
      seed_->rename_b = spec_.b.evaluator();
      seed_->rename_a->begin(spec_.n, spec_.rounds);
      seed_->rename_b->begin(spec_.n, spec_.rounds);
      walk_roots(std::span(spec_.roots->ascending), probe);
    } else {
      walk_roots(0, 1, total, probe);
    }
  }

 private:
  /// Places each of `roots` in digits_ and calls visit(orbit) on it
  /// until visit returns false.
  template <typename Visit>
  void walk_roots(std::span<const CanonicalRoot> roots, const Visit& visit) {
    auto& d = digits_[1];
    for (const CanonicalRoot& root : roots) {
      for (int i = 0; i < spec_.n; ++i) {
        d[static_cast<std::size_t>(i)] =
            root.digits[static_cast<std::size_t>(i)];
      }
      if (!visit(root.orbit)) return;
    }
  }

  /// Places first rounds first, first + stride, ... below total in
  /// digits_ and calls visit(1) on each until visit returns false.
  template <typename Visit>
  void walk_roots(std::int64_t first, std::int64_t stride, std::int64_t total,
                  const Visit& visit) {
    for (std::int64_t k = first; k < total; k += stride) {
      decode_root(k, spec_.n, spec_.v, digits_[1].data());
      if (!visit(std::int64_t{1})) return;
    }
  }

  /// A whole subtree below the current depth was decided at once.
  void count_subtree(Round depth, std::int64_t orbit, bool at_leaf) {
    stats_.patterns_decided +=
        orbit * spec_.leaves_below[static_cast<std::size_t>(depth)];
    if (at_leaf) {
      ++stats_.leaves;
    } else {
      ++stats_.pruned_subtrees;
    }
  }

  FaultPattern materialize() const {
    FaultPattern p(spec_.n);
    for (Round d = 1; d <= spec_.rounds; ++d) {
      p.append(digits_[static_cast<std::size_t>(d)].data());
    }
    return p;
  }

  /// Pushes the depth's round assignment -- its odometer digits are the
  /// D(i,r) words -- into one evaluator.
  StepVerdict push_current(StepEvaluator& eval, Round depth) const {
    return eval.push_round(digits_[static_cast<std::size_t>(depth)].data());
  }

  /// Evaluates the node whose round assignment the caller placed in
  /// digits_ at `depth` and recurses below it. Returns false to
  /// abort the shard (counterexample recorded or budget exhausted).
  bool descend(Round depth, std::int64_t orbit) {
    if (++stats_.nodes > spec_.node_budget) {
      budget_exceeded_ = true;
      return false;
    }
    const bool at_leaf = depth == spec_.rounds;

    StepVerdict av;
    bool a_pushed = false;
    if (a_forever_at_ >= 0) {
      av = StepVerdict::kSatisfiedForever;
    } else {
      av = push_current(*a_eval_, depth);
      a_pushed = true;
      if (av == StepVerdict::kSatisfiedForever) a_forever_at_ = depth;
    }

    // A violated: no counterexample at this leaf; with a prunable A, at
    // no leaf below either.
    if (av == StepVerdict::kViolatedForever && (at_leaf || spec_.prune_a)) {
      count_subtree(depth, orbit, at_leaf);
      if (a_pushed) {
        a_eval_->pop_round();
        if (a_forever_at_ == depth) a_forever_at_ = -1;
      }
      return true;
    }

    StepVerdict bv;
    bool b_pushed = false;
    if (b_forever_at_ >= 0) {
      bv = StepVerdict::kSatisfiedForever;
    } else {
      bv = push_current(*b_eval_, depth);
      b_pushed = true;
      if (bv == StepVerdict::kSatisfiedForever) b_forever_at_ = depth;
    }

    bool keep_going = true;
    if (at_leaf) {
      ++stats_.leaves;
      stats_.patterns_decided += orbit;
      if (bv == StepVerdict::kViolatedForever) {
        // av != kViolatedForever here: the complete pattern satisfies A
        // and violates B.
        counterexample_ = materialize();
        keep_going = false;
      }
    } else if (spec_.prune_b && bv == StepVerdict::kSatisfiedForever) {
      // B holds for every extension: no counterexample below.
      count_subtree(depth, orbit, /*at_leaf=*/false);
    } else {
      keep_going = explore_below(depth, orbit);
    }

    if (b_pushed) {
      b_eval_->pop_round();
      if (b_forever_at_ == depth) b_forever_at_ = -1;
    }
    if (a_pushed) {
      a_eval_->pop_round();
      if (a_forever_at_ == depth) a_forever_at_ = -1;
    }
    return keep_going;
  }

  /// Probes evaluator keyability once, at the empty state. Keyability is
  /// structural (constant over an evaluator's lifetime -- see the
  /// state_bytes contract), so one probe decides it for the whole search.
  void init_memo() {
    memo_on_ = false;
    if (!spec_.use_memo) return;
    key_.clear();
    if (!a_eval_->state_bytes(key_)) return;
    key_.clear();
    if (!b_eval_->state_bytes(key_)) return;
    memo_on_ = true;
    memo_.assign(static_cast<std::size_t>(spec_.rounds), MemoTable{});
  }

  /// Writes the joint evaluator state of the current node into key_.
  bool compose_key() {
    return core::compose_key(*a_eval_, a_forever_at_ >= 0, *b_eval_,
                             b_forever_at_ >= 0, key_);
  }

  /// Enumerates the whole subtree below the inner node at `depth` (whose
  /// evaluator pushes descend already performed), through the
  /// transposition tables when they are on. A hit replays the stored
  /// subtree's exact work profile; a miss explores and, if the subtree
  /// completes, stores it. Equal keys imply identical evaluator behaviour
  /// below (the state_bytes contract), hence identical subtree profiles
  /// -- so every statistic except the memo_* counters matches the plain
  /// DFS exactly.
  bool explore_below(Round depth, std::int64_t orbit) {
    if (!memo_on_) return enumerate_level(depth + 1, orbit);
    if (!compose_key()) return enumerate_level(depth + 1, orbit);
    if (seed_ != nullptr && (depth == 1 || spec_.roots != nullptr)) {
      return seed_state(depth, orbit);
    }
    MemoTable& table = memo_[static_cast<std::size_t>(spec_.rounds - depth)];
    const MemoEntry* entry = nullptr;
    if (const auto it = table.find(key_); it != table.end()) {
      entry = &it->second;
    } else if (spec_.seed != nullptr && depth == 1) {
      if (const auto sit = spec_.seed->find(key_); sit != spec_.seed->end()) {
        entry = &sit->second;
      }
    }
    if (entry != nullptr) {
      ++stats_.memo_hits;
      return replay(*entry, depth, orbit);
    }
    ++stats_.memo_misses;
    std::vector<std::uint8_t> key = key_;  // recursion reuses the scratch
    const std::int64_t nodes0 = stats_.nodes;
    const std::int64_t leaves0 = stats_.leaves;
    const std::int64_t pruned0 = stats_.pruned_subtrees;
    if (!enumerate_level(depth + 1, orbit)) return false;
    table.emplace(std::move(key),
                  MemoEntry{stats_.nodes - nodes0, stats_.leaves - leaves0,
                            stats_.pruned_subtrees - pruned0});
    ++stats_.memo_entries;
    return true;
  }

  /// Accounts a completed subtree below `depth` from its stored profile,
  /// deciding every leaf below it. False when that exceeds the budget.
  bool replay(const MemoEntry& entry, Round depth, std::int64_t orbit) {
    stats_.nodes += entry.nodes;
    stats_.leaves += entry.leaves;
    stats_.pruned_subtrees += entry.pruned_subtrees;
    stats_.patterns_decided +=
        orbit * spec_.leaves_below[static_cast<std::size_t>(depth)];
    if (stats_.nodes > spec_.node_budget) {
      budget_exceeded_ = true;
      return false;
    }
    return true;
  }

  /// Seed-pass handler for the state at `depth`, whose key compose_key
  /// has put in key_. Each state is resolved once. At depth 1 the outcome
  /// is published into the seed table, or the key is poisoned when the
  /// subtree holds a counterexample or exceeds the budget (counted in a
  /// fresh window per subtree). Below depth 1 the outcome goes into the
  /// seeder's own tables and is accounted as a memo hit would be; an
  /// event there aborts up to depth 1, which poisons.
  ///
  /// Under symmetry a state's outcome is shared by its renaming class, and
  /// the class is explored once, under the state's group G: the renamings
  /// pi with key(pi(P)) = key(P) for the prefix P (see class_key). For pi
  /// in G and any next round y, the subtree below P.y has the profile of
  /// the one below pi(P).pi(y) -- renamed prefixes get the same verdicts,
  /// the symmetric() contract -- and that one has the profile of the one
  /// below P.pi(y), because pi(P) and P have equal keys (the state_bytes
  /// contract). So profiles are constant on the orbits of the subgroup G
  /// generates, and explore_orbits visits one round per orbit. A
  /// counterexample below any round of an orbit lies below its canonical
  /// round too, so poisoning decides exactly as the full walk does.
  bool seed_state(Round depth, std::int64_t orbit) {
    SeedPass& seed = *seed_;
    const bool root = depth == 1;
    MemoTable& table =
        root ? *seed.out
             : memo_[static_cast<std::size_t>(spec_.rounds - depth)];
    if (const auto it = table.find(key_); it != table.end()) {
      return root || replay(it->second, depth, orbit);
    }
    if (root && (seed.poisoned.contains(key_) ||
                 static_cast<std::int64_t>(table.size()) >= kMaxSeedEntries)) {
      // Resolved already, or a state-rich workload: stop seeding and let
      // the shards take over.
      return true;
    }
    std::vector<std::uint8_t> key = key_;  // recursion reuses the scratch
    PermMask group = 1;                    // the identity alone
    std::vector<std::uint8_t> cls;
    std::optional<MemoEntry> outcome;
    bool known = false;
    if (spec_.roots != nullptr) {
      cls = class_key(depth, &group);
      const ClassTable& classes = seed.classes[static_cast<std::size_t>(depth)];
      if (const auto it = classes.find(cls); it != classes.end()) {
        outcome = it->second;
        known = true;
      }
    }
    if (!known) {
      if (root) stats_ = EnumStats{};  // per-subtree budget window
      const std::int64_t nodes0 = stats_.nodes;
      const std::int64_t leaves0 = stats_.leaves;
      const std::int64_t pruned0 = stats_.pruned_subtrees;
      if (explore_orbits(depth, group, orbit)) {
        outcome = MemoEntry{stats_.nodes - nodes0, stats_.leaves - leaves0,
                            stats_.pruned_subtrees - pruned0};
      } else if (!root) {
        return false;
      } else {
        counterexample_.reset();
        budget_exceeded_ = false;
      }
      if (spec_.roots != nullptr) {
        seed.classes[static_cast<std::size_t>(depth)].emplace(std::move(cls),
                                                              outcome);
      }
    }
    if (!root) {
      table.emplace(std::move(key), *outcome);
      return !known || replay(*outcome, depth, orbit);
    }
    if (outcome.has_value()) {
      table.emplace(std::move(key), *outcome);
    } else {
      // Counterexample or budget exhaustion below: shards must replay
      // this subtree themselves -- in their own deterministic order, with
      // the exact partial counts -- so it must never become a hit.
      seed.poisoned.insert(std::move(key));
    }
    return true;
  }

  /// Enumerates the rounds below the inner node at `depth` once per orbit
  /// of the subgroup `group` generates, from that subgroup's table of
  /// canonical rounds. Each canonical round's subtree profile is scaled
  /// by its orbit size before the budget check, so the budget sees the
  /// exact mass of the full walk (seed_state says why the profile is
  /// constant on an orbit). A trivial group takes the plain odometer.
  bool explore_orbits(Round depth, PermMask group, std::int64_t orbit) {
    if (group == 1) return enumerate_level(depth + 1, orbit);
    const detail::SubgroupRounds& canonical = detail::subgroup_rounds(
        spec_.n, spec_.roots->generated(group));
    auto& digits = digits_[static_cast<std::size_t>(depth) + 1];
    for (std::size_t k = 0; k < canonical.rounds.size(); ++k) {
      const unsigned packed = canonical.rounds[k];
      for (int i = 0; i < spec_.n; ++i) {
        digits[static_cast<std::size_t>(i)] = (packed >> (4 * i)) & 0xFu;
      }
      const std::int64_t nodes0 = stats_.nodes;
      const std::int64_t leaves0 = stats_.leaves;
      const std::int64_t pruned0 = stats_.pruned_subtrees;
      if (!descend(depth + 1, orbit)) return false;
      const std::int64_t more = canonical.orbits[k] - 1;
      stats_.nodes += more * (stats_.nodes - nodes0);
      stats_.leaves += more * (stats_.leaves - leaves0);
      stats_.pruned_subtrees += more * (stats_.pruned_subtrees - pruned0);
      if (stats_.nodes > spec_.node_budget) {
        budget_exceeded_ = true;
        return false;
      }
    }
    return true;
  }

  /// The current prefix's renaming class: the least key, composed as
  /// compose_key does, over all n! renamings of rounds 1 .. depth. Also
  /// writes to *group the renamings whose key equals the prefix's own. A
  /// renamed evaluator that promised kSatisfiedForever gets no further
  /// pushes, as in descend. Enforces the contract that makes classes
  /// sound: every renamed prefix gets the identity's verdict pair, at
  /// every round; the identity comes first.
  std::vector<std::uint8_t> class_key(Round depth, PermMask* group) {
    StepEvaluator& ra = *seed_->rename_a;
    StepEvaluator& rb = *seed_->rename_b;
    const std::vector<PermTable>& perms = spec_.roots->perms;
    std::array<std::uint64_t, detail::kMaxSymmetryProcesses> renamed{};
    std::vector<std::uint8_t> own;
    std::vector<std::uint8_t> best;
    std::vector<std::uint8_t> key;
    // The identity's verdict pair at each round of the prefix.
    std::vector<std::pair<StepVerdict, StepVerdict>> verdicts(
        static_cast<std::size_t>(depth) + 1);
    *group = 0;
    for (std::size_t p = 0; p < perms.size(); ++p) {
      Round a_pushed = 0;
      Round b_pushed = 0;
      bool a_retired = false;
      bool b_retired = false;
      for (Round r = 1; r <= depth; ++r) {
        rename_round(perms[p], digits_[static_cast<std::size_t>(r)].data(),
                     spec_.n, renamed.data());
        StepVerdict av = StepVerdict::kSatisfiedForever;
        StepVerdict bv = StepVerdict::kSatisfiedForever;
        if (!a_retired) {
          av = ra.push_round(renamed.data());
          ++a_pushed;
          a_retired = av == StepVerdict::kSatisfiedForever;
        }
        if (!b_retired) {
          bv = rb.push_round(renamed.data());
          ++b_pushed;
          b_retired = bv == StepVerdict::kSatisfiedForever;
        }
        auto& identity = verdicts[static_cast<std::size_t>(r)];
        if (p == 0) {
          identity = {av, bv};
        } else if (r == 1) {
          RRFD_ENSURE_MSG(identity == std::pair(av, bv),
                          "a symmetric() predicate gave a renamed first "
                          "round a different verdict");
        } else {
          RRFD_ENSURE_MSG(identity == std::pair(av, bv),
                          "a symmetric() predicate gave a renamed prefix a "
                          "different verdict below its first round");
        }
      }
      const bool keyed = core::compose_key(ra, a_retired, rb, b_retired, key);
      for (; b_pushed > 0; --b_pushed) rb.pop_round();
      for (; a_pushed > 0; --a_pushed) ra.pop_round();
      RRFD_ENSURE_MSG(keyed, "keyability is structural");
      if (p == 0) {
        own = key;
        best = key;
      } else if (key < best) {
        best = key;
      }
      if (key == own) *group |= PermMask{1} << p;
    }
    return best;
  }

  /// In-place odometer over all v^n round assignments at `depth`,
  /// descending into each. Process 0's digit varies fastest, matching
  /// the first-round index decoding in run().
  bool enumerate_level(Round depth, std::int64_t orbit) {
    auto& digits = digits_[static_cast<std::size_t>(depth)];
    const auto max_digit = static_cast<std::uint64_t>(spec_.v - 1);
    std::fill(digits.begin(), digits.end(), 0);
    for (;;) {
      if (!descend(depth, orbit)) return false;
      int i = 0;
      while (i < spec_.n && digits[static_cast<std::size_t>(i)] == max_digit) {
        digits[static_cast<std::size_t>(i)] = 0;
        ++i;
      }
      if (i == spec_.n) return true;  // wrapped: level exhausted
      ++digits[static_cast<std::size_t>(i)];
    }
  }

  const SearchSpec& spec_;
  ShardOutcome& out_;
  std::unique_ptr<StepEvaluator> a_eval_;
  std::unique_ptr<StepEvaluator> b_eval_;
  /// Depth at which the evaluator promised kSatisfiedForever (no pushes
  /// below it), -1 if none.
  Round a_forever_at_ = -1;
  Round b_forever_at_ = -1;
  EnumStats stats_;  ///< shard-local; published to out_ once in run()
  std::optional<FaultPattern> counterexample_;
  bool budget_exceeded_ = false;
  /// D(i,r) word per (depth, proc); rows [1..rounds] are edited in place.
  std::vector<std::vector<std::uint64_t>> digits_;
  // --- suffix-count memoization (all idle unless memo_on_) ---
  bool memo_on_ = false;               ///< requested and both evaluators keyed
  std::vector<MemoTable> memo_;        ///< indexed by rounds remaining
  std::vector<std::uint8_t> key_;      ///< compose_key scratch
  std::unique_ptr<SeedPass> seed_;     ///< set in run_seed only
};

ImplicationResult run_search(const Predicate& a, const Predicate& b, int n,
                             Round rounds, const EnumOptions& options) {
  require_representable(n, rounds);

  SearchSpec spec{a, b, n, rounds, (std::int64_t{1} << n) - 1,
                  /*prune_a=*/options.prune && a.prunable(),
                  /*prune_b=*/options.prune, options.node_budget,
                  /*leaves_below=*/{}};
  RRFD_REQUIRE_MSG(spec.node_budget > 0, "node budget must be positive");

  bool use_symmetry = false;
  switch (options.symmetry) {
    case Symmetry::kOff:
      break;
    case Symmetry::kOn:
      RRFD_REQUIRE_MSG(a.symmetric() && b.symmetric(),
                       "symmetry reduction requires both predicates to be "
                       "invariant under process renaming");
      RRFD_REQUIRE_MSG(n <= detail::kMaxSymmetryProcesses,
                       "symmetry reduction is limited to n <= 4");
      use_symmetry = true;
      break;
    case Symmetry::kAuto:
      use_symmetry = a.symmetric() && b.symmetric() &&
                     n <= detail::kMaxSymmetryProcesses;
      break;
  }
  if (use_symmetry) spec.roots = &detail::canonical_roots(n);

  spec.leaves_below.assign(static_cast<std::size_t>(rounds) + 1, 1);
  for (Round d = rounds - 1; d >= 0; --d) {
    spec.leaves_below[static_cast<std::size_t>(d)] =
        spec.leaves_below[static_cast<std::size_t>(d) + 1] *
        *checked_space(n, n);
  }

  const std::int64_t total_roots = *checked_space(n, n);

  // With a single round every inner node is a root, so there is no
  // suffix to memoize.
  spec.use_memo = options.memo == Memo::kAuto && rounds >= 2;

  // Seed pass: depth-1 states repeat *across* shards, so per-shard
  // tables alone cannot collapse that redundancy. When walking the roots
  // serially is cheap relative to the search, do it once up front and
  // hand every shard the shared depth-1 table. Runs before any shard, on
  // this thread: deterministic by construction.
  MemoTable seed;
  std::int64_t seed_entries = 0;
  if (spec.use_memo && total_roots <= kMaxSeedRoots) {
    ShardOutcome scratch;
    ShardWorker seeder(spec, scratch);
    seeder.run_seed(seed, total_roots);
    seed_entries = static_cast<std::int64_t>(seed.size());
    if (seed_entries > 0) spec.seed = &seed;
  }

  // Fixed shard count, independent of how many threads the runner uses:
  // the merge below walks shards in index order, so the result is
  // byte-identical for any execution schedule.
  const int n_shards = shard_count(total_roots);

  std::vector<ShardOutcome> outcomes(static_cast<std::size_t>(n_shards));
  // Lowest shard index that found a counterexample or ran out of budget.
  // Shards above it cannot influence the merged result (the merge stops
  // there), so workers may skip them -- purely an optimization.
  std::atomic<std::int64_t> event_floor{n_shards};
  const auto job = [&](int s) {
    // rrfd-lint: allow(atomic-justified) -- pairs with the release CAS: a
    // floor observed here implies that shard's outcome is fully written
    if (s > event_floor.load(std::memory_order_acquire)) return;
    ShardOutcome& out = outcomes[static_cast<std::size_t>(s)];
    ShardWorker worker(spec, out);
    worker.run(s, n_shards, total_roots);
    if (out.counterexample.has_value() || out.budget_exceeded) {
      // rrfd-lint: allow(atomic-justified) -- CAS loop seed; re-read on failure
      std::int64_t cur = event_floor.load(std::memory_order_relaxed);
      while (s < cur && !event_floor.compare_exchange_weak(
                            // rrfd-lint: allow(atomic-justified) -- release
                            // publishes this shard's outcome to acquirers
                            cur, s, std::memory_order_release)) {
      }
    }
  };
  if (options.runner) {
    options.runner(n_shards, job);
  } else {
    for (int s = 0; s < n_shards; ++s) job(s);
  }

  // Splice in shard order: the first shard with an event decides the
  // result; everything before it contributes statistics.
  ImplicationResult result;
  result.stats.total_roots = total_roots;
  result.stats.symmetry_used = use_symmetry;
  result.stats.shards = n_shards;
  for (int s = 0; s < n_shards; ++s) {
    const ShardOutcome& o = outcomes[static_cast<std::size_t>(s)];
    RRFD_REQUIRE(o.ran);  // only post-event shards may be skipped
    result.stats.nodes += o.stats.nodes;
    result.stats.leaves += o.stats.leaves;
    result.stats.pruned_subtrees += o.stats.pruned_subtrees;
    result.stats.patterns_decided += o.stats.patterns_decided;
    result.stats.expanded_roots += o.stats.expanded_roots;
    result.stats.memo_hits += o.stats.memo_hits;
    result.stats.memo_misses += o.stats.memo_misses;
    result.stats.memo_entries += o.stats.memo_entries;
    RRFD_REQUIRE_MSG(!o.budget_exceeded,
                     "exhaustive check exceeded the per-shard node budget; "
                     "raise EnumOptions::node_budget or shrink the system");
    if (o.counterexample.has_value()) {
      result.holds = false;
      result.counterexample = o.counterexample;
      break;
    }
  }
  // Seed entries are search-wide, counted once (shard-local insertions
  // were merged above). Deterministic like everything else here: the
  // seed pass is serial and runs before any shard.
  result.stats.memo_entries += seed_entries;
  result.patterns_checked = result.stats.patterns_decided;
  return result;
}

}  // namespace

namespace detail {

const CanonicalRoots& canonical_roots(int n) {
  RRFD_REQUIRE_MSG(1 <= n && n <= kMaxSymmetryProcesses,
                   "canonical-root tables exist for 1 <= n <= 4");
  static std::array<std::once_flag, kMaxSymmetryProcesses + 1> built;
  static std::array<CanonicalRoots, kMaxSymmetryProcesses + 1> tables;
  const auto i = static_cast<std::size_t>(n);
  std::call_once(built[i], [i, n] { tables[i] = build_canonical_roots(n); });
  return tables[i];
}

const SubgroupRounds& subgroup_rounds(int n, std::size_t s) {
  const CanonicalRoots& roots = canonical_roots(n);
  RRFD_REQUIRE_MSG(s < roots.subgroups.size(), "no such subgroup of S_n");
  // S_4 has the most subgroups of any n <= 4: 30.
  constexpr std::size_t kMaxSubgroups = 30;
  struct Slot {
    std::once_flag built;
    SubgroupRounds table;
  };
  static std::array<std::array<Slot, kMaxSubgroups>,
                    kMaxSymmetryProcesses + 1>
      slots;
  Slot& slot = slots[static_cast<std::size_t>(n)][s];
  std::call_once(slot.built, [&slot, &roots, n, s] {
    slot.table = build_subgroup_rounds(roots.perms, n, roots.subgroups[s]);
  });
  return slot.table;
}

}  // namespace detail

std::int64_t enumerate_patterns(
    int n, Round rounds,
    const std::function<bool(const FaultPattern&)>& visit) {
  require_representable(n, rounds);
  PatternOdometer odo(n, rounds);
  std::int64_t count = 0;
  do {
    ++count;
    if (!visit(odo.current())) return count;
  } while (odo.advance());
  return count;
}

ImplicationResult implies_exhaustive(const Predicate& a, const Predicate& b,
                                     int n, Round rounds) {
  return run_search(a, b, n, rounds, EnumOptions{});
}

ImplicationResult implies_exhaustive(const Predicate& a, const Predicate& b,
                                     int n, Round rounds,
                                     const EnumOptions& options) {
  return run_search(a, b, n, rounds, options);
}

ImplicationResult implies_on_samples(Adversary& a_adversary,
                                     const Predicate& b, Round rounds,
                                     int samples) {
  RRFD_REQUIRE(samples >= 1);
  ImplicationResult result;
  for (int s = 0; s < samples; ++s) {
    FaultPattern p = record_pattern(a_adversary, rounds);
    ++result.patterns_checked;
    if (!b.holds(p)) {
      result.holds = false;
      result.counterexample = p;
      return result;
    }
  }
  return result;
}

EquivalenceResult equivalent_exhaustive(const Predicate& a, const Predicate& b,
                                        int n, Round rounds) {
  return equivalent_exhaustive(a, b, n, rounds, EnumOptions{});
}

EquivalenceResult equivalent_exhaustive(const Predicate& a, const Predicate& b,
                                        int n, Round rounds,
                                        const EnumOptions& options) {
  EquivalenceResult r;
  r.forward = implies_exhaustive(a, b, n, rounds, options);
  r.backward = implies_exhaustive(b, a, n, rounds, options);
  return r;
}

}  // namespace rrfd::core
