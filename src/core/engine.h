// The RRFD round engine: drives emit/receive algorithms against an
// adversary, exactly following the paper's abstract algorithm skeleton:
//
//   r := 1
//   forever do
//     compute messages m_{i,r} for round r
//     emit m_{i,r}
//     (wait until) forall p_j: received m_{j,r} or p_j in D(i,r)
//     r := r + 1
//
// Because rounds are communication-closed, the "wait until" is resolved
// instantaneously: process p_i receives exactly the messages of S \ D(i,r).
// The engine records the fault pattern it was fed so the run can be
// validated against a model predicate afterwards.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/adversary.h"
#include "core/delivery.h"
#include "core/fault_pattern.h"
#include "core/predicate.h"
#include "core/words.h"
#include "trace/trace.h"

namespace rrfd::core {

/// What a round-based algorithm must provide. One instance per process.
/// absorb() receives a zero-copy DeliveryView over the round's shared
/// emitted buffer (valid only for the duration of the call) plus D(i,r)
/// itself -- announcement sets are first-class algorithm inputs.
template <typename P>
concept RoundProcess = requires(P p, const P cp, Round r,
                                const DeliveryView<typename P::Message>& view,
                                const ProcessSet& d) {
  typename P::Message;
  typename P::Decision;
  { p.emit(r) } -> std::convertible_to<typename P::Message>;
  { p.absorb(r, view, d) };
  { cp.decided() } -> std::convertible_to<bool>;
  { cp.decision() } -> std::convertible_to<typename P::Decision>;
};

/// Optional batch-absorb hook: an algorithm may provide a static
///
///   absorb_round(std::vector<P>& processes, Round r,
///                const Message* emitted, const std::uint64_t* delivered)
///
/// that advances *every* process for one round, where delivered[i] is the
/// word of S \ D(i,r). The engine calls it instead of n per-process
/// absorb() calls, letting the algorithm replace its O(n^2)
/// per-recipient scans with whole-round word passes (see
/// agreement::FloodMin::absorb_round). It must be observably equivalent
/// to the per-process loop -- engine_equivalence_test holds FloodMin's
/// hook against a wrapper that hides it.
template <typename P>
concept WordAbsorbProcess =
    RoundProcess<P> &&
    requires(std::vector<P>& ps, Round r, const typename P::Message* emitted,
             const std::uint64_t* delivered) {
      { P::absorb_round(ps, r, emitted, delivered) };
    };

/// Engine knobs.
struct EngineOptions {
  /// Hard round limit (guards against non-terminating algorithms).
  Round max_rounds = 1024;
  /// Stop as soon as every process has decided. When false, runs exactly
  /// max_rounds rounds (used by truncated-algorithm experiments).
  bool stop_when_all_decided = true;
};

/// Outcome of a run.
template <typename Decision>
struct RunResult {
  FaultPattern pattern;          ///< the D(i,r) family the adversary chose
  Round rounds = 0;              ///< rounds actually executed
  bool all_decided = false;      ///< did every process commit to an output?
  std::vector<std::optional<Decision>> decisions;  ///< per process

  explicit RunResult(int n) : pattern(n) {}

  /// Distinct decided values among processes in `among` (all when empty),
  /// in first-seen (lowest deciding ProcId) order. Sorted-dedup, O(k log k)
  /// over the decided values when Decision is ordered; falls back to the
  /// quadratic scan for ==-only Decision types.
  std::vector<Decision> distinct_decisions(
      const std::optional<ProcessSet>& among = std::nullopt) const {
    std::vector<Decision> candidates;
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      if (among && !among->contains(static_cast<ProcId>(i))) continue;
      if (!decisions[i]) continue;
      candidates.push_back(*decisions[i]);
    }
    if constexpr (requires(const Decision& x, const Decision& y) {
                    { x < y } -> std::convertible_to<bool>;
                  }) {
      // Tag with first-seen rank, cluster equal values (stable, so the
      // earliest occurrence leads its cluster), dedup, restore rank order.
      std::vector<std::pair<Decision, std::size_t>> tagged;
      tagged.reserve(candidates.size());
      for (std::size_t k = 0; k < candidates.size(); ++k) {
        tagged.emplace_back(candidates[k], k);
      }
      std::stable_sort(tagged.begin(), tagged.end(),
                       [](const auto& x, const auto& y) {
                         return x.first < y.first;
                       });
      tagged.erase(std::unique(tagged.begin(), tagged.end(),
                               [](const auto& x, const auto& y) {
                                 return x.first == y.first;
                               }),
                   tagged.end());
      std::sort(tagged.begin(), tagged.end(),
                [](const auto& x, const auto& y) {
                  return x.second < y.second;
                });
      std::vector<Decision> out;
      out.reserve(tagged.size());
      for (auto& entry : tagged) out.push_back(std::move(entry.first));
      return out;
    } else {
      std::vector<Decision> out;
      for (const Decision& candidate : candidates) {
        bool seen = false;
        for (const Decision& d : out) seen = seen || d == candidate;
        if (!seen) out.push_back(candidate);
      }
      return out;
    }
  }
};

/// Runs `processes` (one per ProcId, in order) against `adversary`.
///
/// Every process keeps participating after deciding (as in the paper's
/// "forever do" loop); decisions are commitments, not halts. The caller
/// interprets the decision vector -- e.g. a crash-model experiment ignores
/// announced processes.
template <typename P>
  requires RoundProcess<P>
RunResult<typename P::Decision> run_rounds(std::vector<P>& processes,
                                           Adversary& adversary,
                                           const EngineOptions& options = {}) {
  const int n = adversary.n();
  RRFD_REQUIRE(static_cast<int>(processes.size()) == n);
  RRFD_REQUIRE(options.max_rounds >= 0);

  using Message = typename P::Message;
  using Decision = typename P::Decision;
  RunResult<Decision> result(n);
  result.decisions.assign(static_cast<std::size_t>(n), std::nullopt);

  auto all_decided = [&] {
    for (const P& p : processes) {
      if (!p.decided()) return false;
    }
    return true;
  };

  // Flight recorder: sampled once per run; the untraced hot path costs one
  // bool test per event site. Payload/decision values are recorded only
  // when their types are integral (the trace event is a fixed-size word).
  const bool tracing = trace::Tracer::on();
  constexpr auto kSub = trace::Substrate::kEngine;
  auto encode = [](const auto& value) -> std::pair<std::uint64_t, bool> {
    using V = std::decay_t<decltype(value)>;
    if constexpr (std::is_integral_v<V>) {
      return {static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(value)), true};
    } else {
      return {0, false};
    }
  };
  std::vector<bool> decided_before;
  auto trace_new_decisions = [&](Round r) {
    for (ProcId i = 0; i < n; ++i) {
      const P& p = processes[static_cast<std::size_t>(i)];
      if (decided_before[static_cast<std::size_t>(i)] || !p.decided()) {
        continue;
      }
      decided_before[static_cast<std::size_t>(i)] = true;
      const auto [value, valid] = encode(p.decision());
      trace::record(trace::EventKind::kDecide, kSub, i, r, value,
                    valid ? 1 : 0);
    }
  };
  if (tracing) {
    trace::record(trace::EventKind::kRunBegin, kSub, n, 0,
                  static_cast<std::uint64_t>(options.max_rounds),
                  options.stop_when_all_decided ? 1 : 0);
    decided_before.assign(static_cast<std::size_t>(n), false);
    trace_new_decisions(0);  // decisions committed before round 1
  }

  // The emit buffer is allocated once and reused across rounds; absorb()
  // reads it in place through DeliveryViews, so the round loop performs
  // no per-recipient copies and no per-round allocations beyond what the
  // messages themselves need.
  std::vector<Message> emitted;
  emitted.reserve(static_cast<std::size_t>(n));

  // Announcements land straight in the pattern's word arena; the adversary
  // writes each round into one reused n-word row, and the delivered masks
  // S \ D(i,r) live in another, so a round costs n word stores and no
  // allocation.
  const std::uint64_t full = full_mask(n);
  result.pattern.reserve_rounds(std::min(options.max_rounds, Round{4096}));
  std::vector<std::uint64_t> d(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> delivered(static_cast<std::size_t>(n), 0);

  for (Round r = 1; r <= options.max_rounds; ++r) {
    if (options.stop_when_all_decided && all_decided()) break;

    if (tracing) trace::record(trace::EventKind::kRoundStart, kSub, -1, r);

    // Emit phase: everybody computes its round-r message first (the round
    // is communication-closed, so no message depends on another round-r
    // message).
    emitted.clear();
    for (ProcId i = 0; i < n; ++i) {
      emitted.push_back(processes[static_cast<std::size_t>(i)].emit(r));
    }
    // Trace sites live in their own loops so the untraced hot path keeps
    // its per-process loops branch-free (one `tracing` test per round).
    if (tracing) {
      for (ProcId i = 0; i < n; ++i) {
        const auto [value, valid] =
            encode(emitted[static_cast<std::size_t>(i)]);
        trace::record(trace::EventKind::kEmit, kSub, i, r, value,
                      valid ? 1 : 0);
      }
    }

    // The RRFD announces; announcements determine delivery: p_i receives
    // m_{j,r} iff p_j not in D(i,r). (S(i,r) = S \ D(i,r); the paper
    // allows overlap of S and D, which delivery-wise is equivalent to the
    // message being dropped, so the engine uses the partition form.)
    adversary.next_round(d.data());
    result.pattern.append(d.data());  // enforces D(i,r) within S, != S
    for (std::size_t i = 0; i < d.size(); ++i) delivered[i] = full & ~d[i];
    if (tracing) {
      for (ProcId i = 0; i < n; ++i) {
        // Engine deliveries are one view per recipient, not n point-to-
        // point copies: a = the delivered-senders mask S \ D(i,r).
        trace::record(trace::EventKind::kAnnounce, kSub, i, r,
                      d[static_cast<std::size_t>(i)]);
        trace::record(trace::EventKind::kDeliver, kSub, i, r,
                      delivered[static_cast<std::size_t>(i)]);
      }
    }
    if constexpr (WordAbsorbProcess<P>) {
      P::absorb_round(processes, r, emitted.data(), delivered.data());
    } else {
      for (ProcId i = 0; i < n; ++i) {
        const ProcessSet di =
            ProcessSet::from_bits(n, d[static_cast<std::size_t>(i)]);
        const DeliveryView<Message> view(emitted.data(), di);
        processes[static_cast<std::size_t>(i)].absorb(r, view, di);
      }
    }
    if (tracing) {
      trace_new_decisions(r);
      trace::record(trace::EventKind::kRoundEnd, kSub, -1, r);
    }
    result.rounds = r;
  }
  std::uint64_t decided_mask = 0;
  for (ProcId i = 0; i < n; ++i) {
    const P& p = processes[static_cast<std::size_t>(i)];
    if (p.decided()) {
      result.decisions[static_cast<std::size_t>(i)] = p.decision();
      decided_mask |= std::uint64_t{1} << i;
    }
  }
  result.all_decided = all_decided();
  if (tracing) {
    trace::record(trace::EventKind::kRunEnd, kSub, -1, result.rounds,
                  result.all_decided ? 1 : 0, decided_mask);
  }
  return result;
}

}  // namespace rrfd::core
