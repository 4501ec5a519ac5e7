#include "runtime/explorer.h"

#include <bit>

#include "core/words.h"
#include "trace/trace.h"
#include "util/check.h"

namespace rrfd::runtime {

Scheduler::Choice ScheduleExplorer::Node::choice(int k) const {
  if (k < steps) return {core::nth_set_bit(runnable, k), false};
  return {core::nth_set_bit(runnable, k - steps), true};
}

Scheduler::Choice ScheduleExplorer::TreeScheduler::pick(
    const ProcessSet& runnable, int /*step*/) {
  RRFD_REQUIRE(!runnable.empty());
  if (depth_ == path_.size()) {
    // New decision point: every runnable process's step, then, within the
    // remaining budget, its crash; the run takes the first.
    const int steps = runnable.size();
    path_.push_back({runnable.bits(), steps,
                     crashes_ < max_crashes_ ? 2 * steps : steps, 0});
  }
  const Node& node = path_[depth_];
  RRFD_ENSURE(node.chosen < node.alternatives);
  const Choice c = node.choice(node.chosen);
  // Replay consistency: the tree must be deterministic under replay.
  RRFD_ENSURE_MSG(runnable.contains(c.next),
                  "nondeterministic simulation: replayed choice not runnable");
  ++depth_;
  if (c.crash) ++crashes_;
  return c;
}

ScheduleExplorer::Stats ScheduleExplorer::explore(
    const std::function<void(Scheduler&)>& run_one) {
  return explore_impl({}, /*frozen=*/0, /*first_ordinal=*/0, run_one);
}

std::vector<Scheduler::Choice> ScheduleExplorer::root_alternatives(
    const std::function<void(Scheduler&)>& run_one) const {
  std::vector<Node> path;
  TreeScheduler scheduler(path, options_.max_crashes);
  run_one(scheduler);
  if (path.empty()) return {};
  const Node& root = path.front();
  std::vector<Scheduler::Choice> alternatives;
  alternatives.reserve(static_cast<std::size_t>(root.alternatives));
  for (int k = 0; k < root.alternatives; ++k) {
    alternatives.push_back(root.choice(k));
  }
  return alternatives;
}

ScheduleExplorer::Stats ScheduleExplorer::explore_shard(
    const std::vector<Scheduler::Choice>& root, std::size_t shard,
    const std::function<void(Scheduler&)>& run_one, long first_ordinal) {
  RRFD_REQUIRE(shard < root.size());
  // Reconstruct the root node exactly as the serial DFS holds it while
  // visiting this subtree: all alternatives present, `shard` chosen.
  // Shard 0 instead starts with an empty path, as serial DFS does on its
  // very first run: the run rediscovers the root with chosen = 0 (shard
  // 0's pin), and frozen = 1 still stops backtracking at the root -- this
  // keeps the traced schedule brackets (whose payload is the replayed
  // prefix depth) byte-identical to the serial stream.
  std::vector<Node> path;
  if (shard > 0) {
    // The flat node holds only what root_alternatives() returns: each
    // runnable process's step by id, then possibly each one's crash.
    Node node;
    for (const Scheduler::Choice& c : root) {
      RRFD_REQUIRE(0 <= c.next && c.next < core::kMaxProcesses);
      node.runnable |= std::uint64_t{1} << c.next;
    }
    node.steps = std::popcount(node.runnable);
    node.alternatives = static_cast<int>(root.size());
    node.chosen = static_cast<int>(shard);
    bool same = node.alternatives == node.steps ||
                node.alternatives == 2 * node.steps;
    for (int k = 0; same && k < node.alternatives; ++k) {
      const Scheduler::Choice c = node.choice(k);
      const Scheduler::Choice& given = root[static_cast<std::size_t>(k)];
      same = c.next == given.next && c.crash == given.crash;
    }
    RRFD_REQUIRE_MSG(same, "root is not a list root_alternatives() returned");
    path.push_back(node);
  }
  return explore_impl(std::move(path), /*frozen=*/1, first_ordinal, run_one);
}

ScheduleExplorer::Stats ScheduleExplorer::explore_impl(
    std::vector<Node> path, std::size_t frozen, long first_ordinal,
    const std::function<void(Scheduler&)>& run_one) {
  Stats stats;

  // Flight recorder: one round_start/round_end pair per explored schedule
  // ("round" = schedule ordinal), bracketing the runtime events the inner
  // Simulation emits. The trace of a failing exploration therefore ends
  // with the exact schedule (and its choices) that blew up.
  const bool tracing = trace::Tracer::on();
  constexpr auto kSub = trace::Substrate::kExplorer;

  while (stats.schedules < options_.max_schedules) {
    TreeScheduler scheduler(path, options_.max_crashes);
    if (tracing) {
      trace::record(trace::EventKind::kRoundStart, kSub, -1,
                    static_cast<std::int32_t>(first_ordinal + stats.schedules),
                    static_cast<std::uint64_t>(path.size()));
    }
    run_one(scheduler);
    ++stats.schedules;
    if (tracing) {
      trace::record(
          trace::EventKind::kRoundEnd, kSub, -1,
          static_cast<std::int32_t>(first_ordinal + stats.schedules - 1));
    }

    // Discard decision points the replayed run did not consume. A run can
    // terminate shallower than the stored path (e.g. a run_one whose
    // program length varies across calls); stale deeper nodes would then
    // be backtracked as if the run had reached them, yielding duplicate /
    // phantom schedules and a wrong `exhausted`.
    RRFD_ENSURE_MSG(scheduler.depth() >= frozen,
                    "schedule ended inside the pinned shard prefix");
    path.resize(scheduler.depth());

    // Backtrack: advance the deepest unpinned node with an unexplored
    // alternative.
    while (path.size() > frozen &&
           path.back().chosen + 1 >= path.back().alternatives) {
      path.pop_back();
    }
    if (path.size() <= frozen) {
      stats.exhausted = true;
      return stats;
    }
    ++path.back().chosen;
  }
  return stats;
}

}  // namespace rrfd::runtime
