#include "trace/replay.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/adversaries.h"
#include "util/str.h"

namespace rrfd::trace {

TraceReplayer::TraceReplayer(Trace trace) : trace_(std::move(trace)) {
  int run_begins = 0;
  for (const TraceEvent& ev : trace_.events) {
    if (ev.kind == EventKind::kRunBegin) {
      ++run_begins;
      n_ = ev.proc;
      substrate_ = ev.substrate;
    } else if (ev.kind == EventKind::kRunEnd) {
      recorded_rounds_ = ev.round;
    }
  }
  RRFD_REQUIRE_MSG(run_begins == 1,
                   cat("trace must contain exactly one run (found ",
                       run_begins, " run_begin events)"));
  RRFD_REQUIRE_MSG(0 < n_ && n_ <= core::kMaxProcesses,
                   "trace run_begin carries an invalid system size");
}

core::FaultPattern TraceReplayer::recorded_pattern() const {
  // The rounds come from untrusted input, so bound them by the evidence
  // before allocating anything: a genuine trace announces every round it
  // covers, hence its largest announce round is at most its number of
  // announce events.
  core::Round max_round = 0;
  std::size_t announces = 0;
  for (const TraceEvent& ev : trace_.events) {
    if (ev.kind != EventKind::kAnnounce) continue;
    RRFD_REQUIRE_MSG(1 <= ev.round && 0 <= ev.proc && ev.proc < n_,
                     "announce event out of range: " + to_string(ev));
    max_round = std::max(max_round, static_cast<core::Round>(ev.round));
    ++announces;
  }
  RRFD_REQUIRE_MSG(static_cast<std::size_t>(max_round) <= announces,
                   cat("trace announces round ", max_round, " but holds only ",
                       announces, " announce events"));
  const auto width = static_cast<std::size_t>(n_);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(max_round) * width,
                                   0);
  std::vector<std::uint64_t> seen(static_cast<std::size_t>(max_round), 0);
  for (const TraceEvent& ev : trace_.events) {
    if (ev.kind != EventKind::kAnnounce) continue;
    const auto r = static_cast<std::size_t>(ev.round - 1);
    const std::uint64_t bit = std::uint64_t{1} << ev.proc;
    RRFD_REQUIRE_MSG((seen[r] & bit) == 0,
                     "announce event repeats a (round, process) pair: " +
                         to_string(ev));
    seen[r] |= bit;
    words[r * width + static_cast<std::size_t>(ev.proc)] = ev.a;
  }
  core::FaultPattern pattern(n_);
  pattern.reserve_rounds(max_round);
  for (std::size_t r = 0; r < seen.size(); ++r) {
    pattern.append(words.data() + r * width);
  }
  return pattern;
}

core::AdversaryPtr TraceReplayer::scripted_adversary() const {
  return std::make_unique<core::ScriptedAdversary>(recorded_pattern());
}

std::vector<std::optional<std::int64_t>> TraceReplayer::recorded_decisions()
    const {
  std::vector<std::optional<std::int64_t>> out(
      static_cast<std::size_t>(n_));
  for (const TraceEvent& ev : trace_.events) {
    if (ev.kind != EventKind::kDecide || ev.b == 0) continue;
    RRFD_REQUIRE_MSG(0 <= ev.proc && ev.proc < n_,
                     "decide event out of range: " + to_string(ev));
    out[static_cast<std::size_t>(ev.proc)] =
        static_cast<std::int64_t>(ev.a);
  }
  return out;
}

std::vector<std::pair<std::int32_t, bool>> TraceReplayer::scheduler_choices()
    const {
  std::vector<std::pair<std::int32_t, bool>> out;
  for (const TraceEvent& ev : trace_.events) {
    if (ev.substrate != Substrate::kRuntime) continue;
    if (ev.kind == EventKind::kSchedChoice) {
      out.emplace_back(ev.proc, ev.b != 0);
    } else if (ev.kind == EventKind::kCrash) {
      out.emplace_back(ev.proc, true);
    }
  }
  return out;
}

std::vector<std::uint32_t> TraceReplayer::link_choices() const {
  std::vector<std::uint32_t> out;
  for (const TraceEvent& ev : trace_.events) {
    if (ev.substrate == Substrate::kMsgpass &&
        ev.kind == EventKind::kSchedChoice) {
      out.push_back(static_cast<std::uint32_t>(ev.a));
    }
  }
  return out;
}

std::vector<std::pair<std::int32_t, std::uint64_t>> TraceReplayer::crash_dests()
    const {
  std::vector<std::pair<std::int32_t, std::uint64_t>> out;
  for (const TraceEvent& ev : trace_.events) {
    if (ev.substrate == Substrate::kMsgpass &&
        ev.kind == EventKind::kCrash) {
      out.emplace_back(ev.proc, ev.a);
    }
  }
  return out;
}

std::vector<std::pair<std::int32_t, std::int32_t>>
TraceReplayer::step_choices() const {
  std::vector<std::pair<std::int32_t, std::int32_t>> out;
  for (const TraceEvent& ev : trace_.events) {
    if (ev.substrate == Substrate::kSemisync &&
        ev.kind == EventKind::kSchedChoice) {
      out.emplace_back(ev.proc, static_cast<std::int32_t>(ev.a));
    }
  }
  return out;
}

void TraceReplayer::verify_matches(
    const std::vector<TraceEvent>& replayed) const {
  const std::vector<TraceEvent>& recorded = trace_.events;
  const std::size_t common = std::min(recorded.size(), replayed.size());
  for (std::size_t k = 0; k < common; ++k) {
    RRFD_ENSURE_MSG(recorded[k] == replayed[k],
                    cat("replay diverged at event #", k, ":\n  recorded: ",
                        to_string(recorded[k]),
                        "\n  replayed: ", to_string(replayed[k])));
  }
  RRFD_ENSURE_MSG(recorded.size() == replayed.size(),
                  cat("replay diverged: recorded ", recorded.size(),
                      " events, replayed ", replayed.size(),
                      " (streams agree on the common prefix)"));
}

}  // namespace rrfd::trace
