#include "ho/compile.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/constraints.h"
#include "core/fault_pattern.h"
#include "core/process_set.h"
#include "ho/parse.h"
#include "util/check.h"
#include "util/str.h"

namespace rrfd::ho {

namespace {

using core::FaultPattern;
using core::ProcessSet;
using core::ProcId;
using core::Round;
using core::RoundFaults;
using core::StepVerdict;
namespace statekey = core::statekey;

// --------------------------------------------------------------------------
// Round-local primitive checks.
//
// Two independently written cores per primitive: the set core works in
// ProcessSet algebra and serves the whole-pattern interpreter (holds()),
// the word core in raw masks (SpecCheck, which shares the zoo twins'
// checks in core/constraints.h) serves the incremental nodes. The
// conformance suites hold the nodes against holds() on every prefix of
// every derived model, the same regime the hand-written zoo lives under.
// --------------------------------------------------------------------------

bool prim_ok_set(const Spec& s, const RoundFaults& round) {
  switch (s.kind) {
    case SpecKind::kLossCap:
      for (const ProcessSet& d : round) {
        if (d.size() > s.a) return false;
      }
      return true;
    case SpecKind::kMobileCap:
      return union_over(round).size() <= s.a;
    case SpecKind::kSelfDelivery:
      for (std::size_t i = 0; i < round.size(); ++i) {
        if (round[i].contains(static_cast<ProcId>(i))) return false;
      }
      return true;
    case SpecKind::kNoPartition:
      return !union_over(round).full();
    case SpecKind::kPartition: {
      const int n = round.front().n();
      const ProcessSet sources = ProcessSet::from_bits(n, s.src);
      for (ProcId i : ProcessSet::from_bits(n, s.dst)) {
        if (!sources.subset_of(round[static_cast<std::size_t>(i)])) {
          return false;
        }
      }
      return true;
    }
    case SpecKind::kAll:
      for (const Spec& c : s.children) {
        if (!prim_ok_set(c, round)) return false;
      }
      return true;
    default:
      break;
  }
  RRFD_REQUIRE_MSG(false, "prim_ok_set: spec is not round-local");
  return false;
}

/// A round-local spec subtree as a core::RoundLocal check: ok() is its
/// word core, and vacuous(n) is true iff no legal round (every D a proper
/// subset of S) can violate it -- the licence for kSatisfiedForever. The
/// check owns a copy of its subtree, as every node owns what it reads, so
/// an evaluator may outlive the predicate that made it.
struct SpecCheck {
  Spec spec;

  bool ok(const std::uint64_t* d, int n) const { return ok(spec, d, n); }
  bool vacuous(int n) const { return vacuous(spec, n); }

  static bool ok(const Spec& s, const std::uint64_t* d, int n) {
    switch (s.kind) {
      case SpecKind::kLossCap:
        return core::LossCap{s.a}.ok(d, n);
      case SpecKind::kMobileCap:
        return core::MobileCap{{s.a}}.ok(d, n);
      case SpecKind::kSelfDelivery:
        return core::SelfDelivery{}.ok(d, n);
      case SpecKind::kNoPartition:  // mobile(n - 1)
        return core::MobileCap{{1, /*all_but=*/true}}.ok(d, n);
      case SpecKind::kPartition:
        for (std::uint64_t m = s.dst; m != 0; m &= m - 1) {
          const int i = std::countr_zero(m);
          if ((s.src & ~d[i]) != 0) return false;
        }
        return true;
      case SpecKind::kAll:
        for (const Spec& c : s.children) {
          if (!ok(c, d, n)) return false;
        }
        return true;
      default:
        break;
    }
    RRFD_REQUIRE_MSG(false, "SpecCheck::ok: spec is not round-local");
    return false;
  }

  static bool vacuous(const Spec& s, int n) {
    switch (s.kind) {
      case SpecKind::kLossCap:
        return core::LossCap{s.a}.vacuous(n);
      case SpecKind::kMobileCap:
        return core::MobileCap{{s.a}}.vacuous(n);
      case SpecKind::kSelfDelivery:
        return core::SelfDelivery{}.vacuous(n);
      case SpecKind::kNoPartition:
        return core::MobileCap{{1, /*all_but=*/true}}.vacuous(n);
      case SpecKind::kPartition:
        return false;
      case SpecKind::kAll:
        for (const Spec& c : s.children) {
          if (!vacuous(c, n)) return false;
        }
        return true;
      default:
        break;
    }
    RRFD_REQUIRE_MSG(false, "SpecCheck::vacuous: spec is not round-local");
    return false;
  }
};

// --------------------------------------------------------------------------
// Whole-pattern interpreter (holds()).
//
// Evaluates the spec over the contiguous (1-based, absolute) round range
// [lo, hi] of the pattern; window() narrows the range for its child and
// stateful primitives treat the range as their whole scope, matching the
// renumbering the incremental WindowNode performs.
// --------------------------------------------------------------------------

std::size_t link_index(int n, int i, int j) {
  return static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(j);
}

bool holds_range(const Spec& s, const FaultPattern& p, Round lo, Round hi) {
  const int n = p.n();
  switch (s.kind) {
    case SpecKind::kLossCap:
    case SpecKind::kMobileCap:
    case SpecKind::kSelfDelivery:
    case SpecKind::kNoPartition:
    case SpecKind::kPartition:
      for (Round r = lo; r <= hi; ++r) {
        if (!prim_ok_set(s, p.round(r))) return false;
      }
      return true;
    case SpecKind::kLinkBudget: {
      std::vector<int> drops(static_cast<std::size_t>(n) *
                                 static_cast<std::size_t>(n),
                             0);
      for (Round r = lo; r <= hi; ++r) {
        for (ProcId i = 0; i < n; ++i) {
          for (ProcId j : p.d(i, r)) {
            if (++drops[link_index(n, i, j)] > s.a) return false;
          }
        }
      }
      return true;
    }
    case SpecKind::kCrashOnly:
      for (Round r = lo; r < hi; ++r) {
        const ProcessSet announced = p.round_union(r);
        for (ProcId k = 0; k < n; ++k) {
          if (!announced.subset_of(p.d(k, r + 1))) return false;
        }
      }
      return true;
    case SpecKind::kFaultyCap:
    case SpecKind::kKernel: {
      ProcessSet u(n);
      for (Round r = lo; r <= hi; ++r) u |= p.round_union(r);
      const int cap = (s.kind == SpecKind::kFaultyCap) ? s.a : n - s.a;
      return u.size() <= cap;
    }
    case SpecKind::kDelayCap: {
      std::vector<int> run(static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(n),
                           0);
      for (Round r = lo; r <= hi; ++r) {
        for (ProcId i = 0; i < n; ++i) {
          const ProcessSet& d = p.d(i, r);
          for (ProcId j = 0; j < n; ++j) {
            if (d.contains(j)) {
              if (++run[link_index(n, i, j)] > s.a) return false;
            } else {
              run[link_index(n, i, j)] = 0;
            }
          }
        }
      }
      return true;
    }
    case SpecKind::kAll:
      for (const Spec& c : s.children) {
        if (!holds_range(c, p, lo, hi)) return false;
      }
      return true;
    case SpecKind::kWindow: {
      const Round child_lo = lo + s.a - 1;
      const Round child_hi = (s.b == 0) ? hi : std::min(hi, lo + s.b - 1);
      return holds_range(s.children.front(), p, child_lo, child_hi);
    }
    case SpecKind::kEventually:
      for (Round r = lo; r <= hi; ++r) {
        if (prim_ok_set(s.children.front(), p.round(r))) return true;
      }
      return false;
  }
  RRFD_REQUIRE_MSG(false, "holds_range: unknown spec kind");
  return false;
}

// --------------------------------------------------------------------------
// Incremental evaluator nodes.
//
// One node per spec subtree, each with the same LIFO push/pop shape as a
// StepEvaluator but returning its verdict through current() so that
// combinator nodes can poll children after every push. All per-push
// state lives in per-depth stacks, so pop() is exact backtracking and a
// node answers in O(n) (O(n^2) for the per-link primitives) per push.
// --------------------------------------------------------------------------

class Node {
 public:
  virtual ~Node() = default;
  /// Resets to the empty scope. `total` is the number of rounds this
  /// node's scope can grow to (the enumeration bound, narrowed by
  /// enclosing windows); budget primitives use it for their vacuity
  /// licence.
  virtual void begin(int n, Round total) = 0;
  /// Extends the scope by one round: d[i] = D(i,r).bits(), n words.
  virtual void push_round(const std::uint64_t* d) = 0;
  virtual void pop() = 0;
  virtual StepVerdict current() const = 0;
  /// Canonical state fingerprint under the StepEvaluator::state_bytes
  /// contract; every node has one, as the spec algebra only admits
  /// bounded state.
  virtual bool state_bytes(std::vector<std::uint8_t>& out) const = 0;
};

std::unique_ptr<Node> build_node(const Spec& spec);

/// A core rule as a node: current() reads its StackEvaluator's
/// non-virtual verdict(), which is exact on the empty scope too (a window
/// that has not opened reports it).
template <class Rule>
class RuleNode final : public Node {
 public:
  explicit RuleNode(Rule rule) : eval_(std::move(rule)) {}

  void begin(int n, Round total) override { eval_.begin(n, total); }
  void push_round(const std::uint64_t* d) override { eval_.push_round(d); }
  void pop() override { eval_.pop_round(); }
  StepVerdict current() const override { return eval_.verdict(); }
  bool state_bytes(std::vector<std::uint8_t>& out) const override {
    return eval_.state_bytes(out);
  }

 private:
  core::StackEvaluator<Rule> eval_;
};

template <class Rule>
std::unique_ptr<Node> node_of(Rule rule) {
  return std::make_unique<RuleNode<Rule>>(std::move(rule));
}

/// eventually(body): "some round of scope satisfies the round-local
/// body". Violations are not stable (a later good round repairs the
/// prefix), which is exactly why derive_traits() strips prunability; the
/// verdict itself stays exact at every depth.
struct Eventually {
  struct State {
    bool seen = false;
  };
  SpecCheck body;

  State next(State s, const std::uint64_t* d, int n) const {
    return {s.seen || body.ok(d, n)};
  }
  StepVerdict verdict(State s, int /*n*/) const {
    // A good round can never be un-seen, so satisfaction is permanent.
    return s.seen ? StepVerdict::kSatisfiedForever
                  : StepVerdict::kViolatedForever;
  }
  void key(State s, int /*n*/, std::vector<std::uint8_t>& out) const {
    statekey::append_u8(out, s.seen ? 0x01 : 0x00);
  }
};

/// Conjunction: push into every child, combine verdicts.
class AllNode final : public Node {
 public:
  explicit AllNode(const Spec& spec) {
    for (const Spec& c : spec.children) children_.push_back(build_node(c));
  }

  void begin(int n, Round total) override {
    for (auto& c : children_) c->begin(n, total);
  }
  void push_round(const std::uint64_t* d) override {
    for (auto& c : children_) c->push_round(d);
  }
  void pop() override {
    for (auto& c : children_) c->pop();
  }
  StepVerdict current() const override {
    bool all_forever = true;
    for (const auto& c : children_) {
      const StepVerdict v = c->current();
      if (v == StepVerdict::kViolatedForever) return v;
      all_forever = all_forever && v == StepVerdict::kSatisfiedForever;
    }
    return all_forever ? StepVerdict::kSatisfiedForever
                       : StepVerdict::kSatisfiedSoFar;
  }
  bool state_bytes(std::vector<std::uint8_t>& out) const override {
    // Children are a fixed list, but their keys vary in length, so each
    // is length-prefixed to keep the concatenation unambiguous.
    for (const auto& c : children_) {
      const std::size_t pos = statekey::begin_length_prefix(out);
      if (!c->state_bytes(out)) return false;
      statekey::end_length_prefix(out, pos);
    }
    return true;
  }

 private:
  std::vector<std::unique_ptr<Node>> children_;
};

/// Scope restriction: forwards only rounds lo..hi (1-based within this
/// node's scope) to the child, renumbered as the child's own scope. Once
/// the window has closed (depth >= hi), the child's sub-pattern can no
/// longer change, so a kSatisfiedSoFar child hardens to forever.
class WindowNode final : public Node {
 public:
  explicit WindowNode(const Spec& spec)
      : lo_(spec.a), hi_(spec.b), child_(build_node(spec.children.front())) {}

  void begin(int n, Round total) override {
    depth_ = 0;
    const Round child_hi = (hi_ == 0) ? total : std::min(hi_, total);
    child_->begin(n, std::max(0, child_hi - lo_ + 1));
  }
  void push_round(const std::uint64_t* d) override {
    ++depth_;
    if (in_window(depth_)) child_->push_round(d);
  }
  void pop() override {
    if (in_window(depth_)) child_->pop();
    --depth_;
  }
  StepVerdict current() const override {
    const StepVerdict v = child_->current();
    if (v == StepVerdict::kSatisfiedSoFar && hi_ != 0 && depth_ >= hi_) {
      return StepVerdict::kSatisfiedForever;
    }
    return v;
  }
  bool state_bytes(std::vector<std::uint8_t>& out) const override {
    // Future behaviour depends on how far the scope has advanced
    // relative to the window bounds, canonicalized: past a closed
    // window every depth is equivalent, and once an unbounded window
    // has opened the exact depth no longer matters.
    const Round canon = (hi_ != 0) ? std::min(depth_, hi_)
                                   : std::min(depth_, lo_);
    statekey::append_u32(out, static_cast<std::uint32_t>(canon));
    return child_->state_bytes(out);
  }

 private:
  bool in_window(Round depth) const {
    return depth >= lo_ && (hi_ == 0 || depth <= hi_);
  }

  Round lo_;
  Round hi_;
  std::unique_ptr<Node> child_;
  Round depth_ = 0;
};

/// link_budget(c) and delay(d): one drop count per ordered link, against
/// a cap. A delay count is the link's current run of consecutive drops,
/// so a delivered round resets it; a budget count never resets. The
/// counts are kept per depth, n * n of them, depths in a row.
class DropCountNode final : public Node {
 public:
  DropCountNode(int cap, bool resets) : cap_(cap), resets_(resets) {}

  void begin(int n, Round total) override {
    n_ = n;
    links_ = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    vacuous_ = cap_ >= total;  // a count grows by at most one per round
    counts_.assign(links_, 0);
    violated_.assign(1, 0);
  }
  void push_round(const std::uint64_t* d) override {
    const std::size_t prev = counts_.size() - links_;
    counts_.resize(counts_.size() + links_);
    bool violated = violated_.back() != 0;
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        const std::size_t link = link_index(n_, i, j);
        const int last = counts_[prev + link];
        const int count = ((d[i] >> j) & 1) != 0 ? last + 1
                          : resets_              ? 0
                                                 : last;
        counts_[prev + links_ + link] = count;
        if (count > cap_) violated = true;
      }
    }
    violated_.push_back(static_cast<char>(violated));
  }
  void pop() override {
    counts_.resize(counts_.size() - links_);
    violated_.pop_back();
  }
  StepVerdict current() const override {
    if (violated_.back() != 0) return StepVerdict::kViolatedForever;
    return vacuous_ ? StepVerdict::kSatisfiedForever
                    : StepVerdict::kSatisfiedSoFar;
  }
  bool state_bytes(std::vector<std::uint8_t>& out) const override {
    // A count over the cap is permanent (a run already exceeded, or drops
    // already spent): absorbing. Otherwise the counts are the state.
    if (violated_.back() != 0) {
      statekey::append_u8(out, 0xFF);
      return true;
    }
    statekey::append_u8(out, 0x00);
    for (std::size_t l = counts_.size() - links_; l < counts_.size(); ++l) {
      statekey::append_u32(out, static_cast<std::uint32_t>(counts_[l]));
    }
    return true;
  }

 private:
  int cap_;
  bool resets_;
  int n_ = 0;
  std::size_t links_ = 0;
  bool vacuous_ = false;
  std::vector<int> counts_;
  std::vector<char> violated_;
};

std::unique_ptr<Node> build_node(const Spec& spec) {
  // Any fully round-local subtree (including all() of round-locals)
  // collapses into one per-round node.
  if (round_local(spec)) return node_of(core::RoundLocal<SpecCheck>{{spec}});
  switch (spec.kind) {
    case SpecKind::kAll:
      return std::make_unique<AllNode>(spec);
    case SpecKind::kWindow:
      return std::make_unique<WindowNode>(spec);
    case SpecKind::kEventually:
      return node_of(Eventually{{spec.children.front()}});
    case SpecKind::kLinkBudget:
      return std::make_unique<DropCountNode>(spec.a, /*resets=*/false);
    case SpecKind::kCrashOnly:
      return node_of(core::CrashMonotone{});
    case SpecKind::kFaultyCap:
    case SpecKind::kKernel:
      return node_of(
          core::CumulativeCap{{spec.a, spec.kind == SpecKind::kKernel}});
    case SpecKind::kDelayCap:
      return std::make_unique<DropCountNode>(spec.a, /*resets=*/true);
    default:
      break;
  }
  RRFD_REQUIRE_MSG(false, "build_node: unknown spec kind");
  return nullptr;
}

// --------------------------------------------------------------------------
// The compiled predicate.
// --------------------------------------------------------------------------

class HoEvaluator final : public core::StepEvaluator {
 public:
  HoEvaluator(const Spec& spec, int max_id)
      : root_(build_node(spec)), max_id_(max_id) {}

  void begin(int n, Round total_rounds) override {
    RRFD_REQUIRE_MSG(max_id_ < n, "spec names a process id >= n");
    root_->begin(n, total_rounds);
  }
  StepVerdict push_round(const std::uint64_t* d) override {
    root_->push_round(d);
    return root_->current();
  }
  void pop_round() override { root_->pop(); }
  bool state_bytes(std::vector<std::uint8_t>& out) const override {
    return root_->state_bytes(out);
  }

 private:
  std::unique_ptr<Node> root_;
  int max_id_;
};

class HoPredicate final : public core::Predicate {
 public:
  HoPredicate(Spec spec, std::string name)
      : spec_(std::move(spec)),
        name_(std::move(name)),
        traits_(derive_traits(spec_)),
        max_id_(max_process_id(spec_)) {}

  std::string name() const override { return name_; }
  std::string description() const override {
    return cat("Heard-Of composition ", to_text(spec_),
               " lowered to a fault-pattern predicate");
  }
  bool holds(const FaultPattern& pattern) const override {
    RRFD_REQUIRE_MSG(max_id_ < pattern.n(), "spec names a process id >= n");
    return holds_range(spec_, pattern, 1, pattern.rounds());
  }
  std::unique_ptr<core::StepEvaluator> evaluator() const override {
    return std::make_unique<HoEvaluator>(spec_, max_id_);
  }
  bool prunable() const override { return traits_.prunable; }
  bool symmetric() const override { return traits_.symmetric; }

 private:
  Spec spec_;
  std::string name_;
  Traits traits_;
  int max_id_;
};

}  // namespace

core::PredicatePtr compile(const Spec& spec, std::string name) {
  validate(spec);
  if (name.empty()) name = cat("ho:", to_text(spec));
  return std::make_shared<HoPredicate>(spec, std::move(name));
}

core::PredicatePtr compile_text(const std::string& spec_text,
                                std::string name) {
  return compile(parse_spec(spec_text), std::move(name));
}

}  // namespace rrfd::ho
