#include "core/submodel.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <mutex>
#include <numeric>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/canonical_roots.h"
#include "util/check.h"

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

/// Orbit size of first round d if it is canonical (lexicographically
/// minimal among its renamings), else 0.
std::int64_t orbit_if_canonical(const std::vector<PermTable>& perms,
                                const std::uint64_t* d, int n) {
  std::array<std::uint64_t, detail::kMaxSymmetryProcesses> image{};
  std::int64_t stabilizer = 0;
  for (const PermTable& p : perms) {
    rename_round(p, d, n, image.data());
    const auto cmp = std::lexicographical_compare_three_way(
        image.begin(), image.begin() + n, d, d + n);
    if (cmp < 0) return 0;  // a strictly smaller renaming exists
    if (cmp == 0) ++stabilizer;
  }
  return static_cast<std::int64_t>(perms.size()) / stabilizer;
}

CanonicalRoots build_canonical_roots(int n) {
  CanonicalRoots t;
  t.perms = build_perm_tables(n);
  const std::int64_t v = (std::int64_t{1} << n) - 1;
  const std::int64_t total = *checked_space(n, n);
  std::array<std::uint64_t, detail::kMaxSymmetryProcesses> d{};
  for (std::int64_t k = 0; k < total; ++k) {
    decode_root(k, n, v, d.data());
    const std::int64_t orbit = orbit_if_canonical(t.perms, d.data(), n);
    if (orbit == 0) continue;
    CanonicalRoot root{k, orbit, {}};
    for (int i = 0; i < n; ++i) {
      root.digits[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(d[static_cast<std::size_t>(i)]);
    }
    t.ascending.push_back(root);
  }
  // Group by shard; the stable sort keeps each group ascending.
  const int shards = shard_count(total);
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
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint8_t byte : key) {
      h ^= byte;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
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
  /// counts, and shard attribution. Under symmetry a new state whose
  /// first round renames one already explored takes that subtree's
  /// outcome instead (see seed_subtree). All seed-pass statistics,
  /// events, and evaluator state are contained here and discarded.
  void run_seed(MemoTable& seed, std::int64_t total) {
    a_eval_->begin(spec_.n, spec_.rounds);
    b_eval_->begin(spec_.n, spec_.rounds);
    init_memo();
    if (!memo_on_) return;
    seeding_ = true;
    seed_out_ = &seed;
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
      rename_a_ = spec_.a.evaluator();
      rename_b_ = spec_.b.evaluator();
      rename_a_->begin(spec_.n, spec_.rounds);
      rename_b_->begin(spec_.n, spec_.rounds);
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
    const Round remaining = spec_.rounds - depth;
    if (seeding_ && remaining == spec_.rounds - 1) {
      return seed_subtree(depth, orbit);
    }
    MemoTable& table = memo_[static_cast<std::size_t>(remaining)];
    const MemoEntry* entry = nullptr;
    if (const auto it = table.find(key_); it != table.end()) {
      entry = &it->second;
    } else if (spec_.seed != nullptr && remaining == spec_.rounds - 1) {
      if (const auto sit = spec_.seed->find(key_); sit != spec_.seed->end()) {
        entry = &sit->second;
      }
    }
    if (entry != nullptr) {
      ++stats_.memo_hits;
      stats_.nodes += entry->nodes;
      stats_.leaves += entry->leaves;
      stats_.pruned_subtrees += entry->pruned_subtrees;
      // A stored subtree completed, deciding every leaf below its root.
      stats_.patterns_decided +=
          orbit * spec_.leaves_below[static_cast<std::size_t>(depth)];
      if (stats_.nodes > spec_.node_budget) {
        budget_exceeded_ = true;
        return false;
      }
      return true;
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

  /// Seed-pass handler for depth-1 subtrees: resolves the state iff it
  /// is new, and publishes it only if its subtree completes. Under
  /// symmetry a subtree's outcome is shared by its renaming class, so a
  /// class is explored once: renaming maps the subtree below a first
  /// round one-to-one onto the subtree below its image, with the same
  /// verdicts (the symmetric() contract), hence the same work profile and
  /// the same events. compose_key has already filled key_.
  bool seed_subtree(Round depth, std::int64_t orbit) {
    MemoTable& seed = *seed_out_;
    if (seed.find(key_) != seed.end() ||
        poisoned_.find(key_) != poisoned_.end()) {
      return true;  // state already resolved; skip the repeat
    }
    if (static_cast<std::int64_t>(seed.size()) >= kMaxSeedEntries) {
      return true;  // state-rich workload: stop seeding, shards take over
    }
    std::vector<std::uint8_t> key = key_;
    std::optional<MemoEntry> outcome;
    if (spec_.roots == nullptr) {
      outcome = explore_seed(depth, orbit);
    } else {
      std::vector<std::uint8_t> cls = class_key();
      if (const auto it = classes_.find(cls); it != classes_.end()) {
        outcome = it->second;
      } else {
        outcome = explore_seed(depth, orbit);
        classes_.emplace(std::move(cls), outcome);
      }
    }
    if (outcome.has_value()) {
      seed.emplace(std::move(key), *outcome);
    } else {
      // Counterexample or budget exhaustion below: shards must replay
      // this subtree themselves -- in their own deterministic order, with
      // the exact partial counts -- so it must never become a hit.
      poisoned_.insert(std::move(key));
    }
    return true;
  }

  /// Explores the subtree below the current depth-1 node with a fresh
  /// budget window: its exact work profile, or nullopt when it holds a
  /// counterexample or exceeds the budget.
  std::optional<MemoEntry> explore_seed(Round depth, std::int64_t orbit) {
    stats_ = EnumStats{};  // per-subtree budget window; discarded
    if (!enumerate_level(depth + 1, orbit)) {
      counterexample_.reset();
      budget_exceeded_ = false;
      return std::nullopt;
    }
    return MemoEntry{stats_.nodes, stats_.leaves, stats_.pruned_subtrees};
  }

  /// The current first round's renaming class: the least depth-1 key,
  /// composed as compose_key does, over all n! renamings of the round.
  /// Enforces the contract that makes classes sound: every renaming gets
  /// the verdict pair of the identity, which comes first.
  std::vector<std::uint8_t> class_key() {
    std::array<std::uint64_t, detail::kMaxSymmetryProcesses> renamed{};
    std::vector<std::uint8_t> best;
    std::vector<std::uint8_t> key;
    StepVerdict root_a = StepVerdict::kSatisfiedSoFar;
    StepVerdict root_b = StepVerdict::kSatisfiedSoFar;
    bool first = true;
    for (const PermTable& p : spec_.roots->perms) {
      rename_round(p, digits_[1].data(), spec_.n, renamed.data());
      const StepVerdict av = rename_a_->push_round(renamed.data());
      const StepVerdict bv = rename_b_->push_round(renamed.data());
      if (first) {
        root_a = av;
        root_b = bv;
      }
      RRFD_ENSURE_MSG(av == root_a && bv == root_b,
                      "a symmetric() predicate gave a renamed first round "
                      "a different verdict");
      const bool keyed =
          core::compose_key(*rename_a_, av == StepVerdict::kSatisfiedForever,
                            *rename_b_, bv == StepVerdict::kSatisfiedForever,
                            key);
      rename_b_->pop_round();
      rename_a_->pop_round();
      RRFD_ENSURE_MSG(keyed, "keyability is structural");
      if (first || key < best) best = key;
      first = false;
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
  bool seeding_ = false;               ///< run_seed mode
  MemoTable* seed_out_ = nullptr;      ///< seed pass output table
  MemoKeySet poisoned_;                ///< seed states with a contained event
  /// Seed-pass outcome per renaming class (nullopt: poisoned), and the
  /// scratch evaluators that key renamed first rounds.
  std::unordered_map<std::vector<std::uint8_t>, std::optional<MemoEntry>,
                     MemoKeyHash>
      classes_;
  std::unique_ptr<StepEvaluator> rename_a_;
  std::unique_ptr<StepEvaluator> rename_b_;
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
