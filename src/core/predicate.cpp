#include "core/predicate.h"

#include <sstream>
#include <utility>

namespace rrfd::core {
namespace {

/// Default evaluator: re-checks holds() on the growing prefix after every
/// push. Correct for *any* predicate — kViolatedForever then only states
/// that the current prefix fails (the engine prunes on it solely when the
/// predicate declares prunable()), and kSatisfiedForever is never
/// claimed. Costs one holds() per round, which is what a predicate that
/// exposes no incremental structure has to pay.
class WholePatternEvaluator final : public StepEvaluator {
 public:
  explicit WholePatternEvaluator(const Predicate& pred)
      : pred_(pred), pattern_(1) {}

  void begin(int n, Round /*total_rounds*/) override {
    pattern_ = FaultPattern(n);
  }

  StepVerdict push_round(const std::uint64_t* d) override {
    pattern_.append(d);
    return pred_.holds(pattern_) ? StepVerdict::kSatisfiedSoFar
                                 : StepVerdict::kViolatedForever;
  }

  void pop_round() override { pattern_.pop_round(); }

 private:
  const Predicate& pred_;
  FaultPattern pattern_;
};

/// Conjunction evaluator: verdicts combine as AND. A child that reports
/// kSatisfiedForever is retired (no further pushes) until the enumeration
/// backtracks above the depth where it made that promise.
class AndEvaluator final : public StepEvaluator {
 public:
  explicit AndEvaluator(const std::vector<PredicatePtr>& parts) {
    children_.reserve(parts.size());
    for (const auto& p : parts) children_.push_back({p->evaluator(), -1});
  }

  void begin(int n, Round total_rounds) override {
    depth_ = 0;
    for (Child& c : children_) {
      c.eval->begin(n, total_rounds);
      c.forever_at = -1;
    }
  }

  StepVerdict push_round(const std::uint64_t* d) override {
    ++depth_;
    bool violated = false;
    bool all_forever = true;
    for (Child& c : children_) {
      if (c.forever_at >= 0) continue;  // holds for every extension
      const StepVerdict v = c.eval->push_round(d);
      if (v == StepVerdict::kViolatedForever) {
        violated = true;
        all_forever = false;
      } else if (v == StepVerdict::kSatisfiedForever) {
        c.forever_at = depth_;
      } else {
        all_forever = false;
      }
    }
    if (violated) return StepVerdict::kViolatedForever;
    return all_forever ? StepVerdict::kSatisfiedForever
                       : StepVerdict::kSatisfiedSoFar;
  }

  bool state_bytes(std::vector<std::uint8_t>& out) const override {
    // A retired child (kSatisfiedForever promise in force) is absorbing:
    // it sees no pushes below this depth and always counts as satisfied,
    // so one tag byte stands in for whatever state it froze at. Live
    // children contribute their own key, length-prefixed because child
    // keys vary in length and concatenation must stay unambiguous.
    for (const Child& c : children_) {
      if (c.forever_at >= 0) {
        statekey::append_u8(out, 0xFF);
        continue;
      }
      statekey::append_u8(out, 0x01);
      const std::size_t pos = statekey::begin_length_prefix(out);
      if (!c.eval->state_bytes(out)) return false;
      statekey::end_length_prefix(out, pos);
    }
    return true;
  }

  void pop_round() override {
    for (Child& c : children_) {
      if (c.forever_at < 0) {
        c.eval->pop_round();
      } else if (c.forever_at == depth_) {
        c.eval->pop_round();  // the promise was made at this depth
        c.forever_at = -1;
      }
      // forever_at < depth_: the child saw no push at this depth.
    }
    --depth_;
  }

 private:
  struct Child {
    std::unique_ptr<StepEvaluator> eval;
    Round forever_at;  ///< depth of a kSatisfiedForever verdict; -1 if none
  };
  std::vector<Child> children_;
  Round depth_ = 0;
};

}  // namespace

bool StepEvaluator::state_bytes(std::vector<std::uint8_t>& /*out*/) const {
  return false;  // no bounded canonical key unless an override says so
}

std::optional<std::vector<std::uint8_t>> StepEvaluator::state_key() const {
  std::vector<std::uint8_t> out;
  if (!state_bytes(out)) return std::nullopt;
  return out;
}

bool Predicate::holds_all_prefixes(const FaultPattern& pattern) const {
  if (!holds(FaultPattern(pattern.n()))) return false;  // the empty prefix
  const auto eval = evaluator();
  eval->begin(pattern.n(), pattern.rounds());
  for (Round r = 1; r <= pattern.rounds(); ++r) {
    if (eval->push_round(pattern.words(r)) == StepVerdict::kViolatedForever) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<StepEvaluator> Predicate::evaluator() const {
  return std::make_unique<WholePatternEvaluator>(*this);
}

AndPredicate::AndPredicate(std::string name, std::vector<PredicatePtr> parts)
    : name_(std::move(name)), parts_(std::move(parts)) {
  RRFD_REQUIRE(!parts_.empty());
  for (const auto& p : parts_) RRFD_REQUIRE(p != nullptr);
}

std::string AndPredicate::description() const {
  std::ostringstream os;
  os << "conjunction of:";
  for (const auto& p : parts_) os << " [" << p->name() << "]";
  return os.str();
}

bool AndPredicate::holds(const FaultPattern& pattern) const {
  for (const auto& p : parts_) {
    if (!p->holds(pattern)) return false;
  }
  return true;
}

std::unique_ptr<StepEvaluator> AndPredicate::evaluator() const {
  return std::make_unique<AndEvaluator>(parts_);
}

bool AndPredicate::prunable() const {
  // The conjunction's violations are extension-stable iff every part's
  // are: a non-prunable part could recover and take the AND with it.
  for (const auto& p : parts_) {
    if (!p->prunable()) return false;
  }
  return true;
}

bool AndPredicate::symmetric() const {
  for (const auto& p : parts_) {
    if (!p->symmetric()) return false;
  }
  return true;
}

PredicatePtr all_of(std::string name, std::vector<PredicatePtr> parts) {
  return std::make_shared<AndPredicate>(std::move(name), std::move(parts));
}

}  // namespace rrfd::core
