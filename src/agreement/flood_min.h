// Flood-min: the classic synchronous k-set agreement algorithm.
//
// Every round, broadcast the smallest input seen so far; after R rounds
// decide it. With at most f crash (or send-omission) faults, R =
// floor(f/k) + 1 rounds suffice for k-set agreement (and Corollaries
// 4.2/4.4 show no algorithm can do it in floor(f/k) rounds -- which the
// truncated version of this very algorithm demonstrates against the
// ChainAdversary).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/delivery.h"
#include "core/process_set.h"
#include "core/types.h"
#include "core/words.h"
#include "util/check.h"

namespace rrfd::agreement {

class FloodMin {
 public:
  using Message = int;
  using Decision = int;

  /// Decides after `decide_round` rounds (use floor(f/k)+1 for a correct
  /// run, floor(f/k) to reproduce the lower-bound violation).
  FloodMin(int input, core::Round decide_round)
      : min_(input), decide_round_(decide_round) {
    RRFD_REQUIRE(decide_round >= 1);
  }

  int emit(core::Round) const { return min_; }

  void absorb(core::Round r, const core::DeliveryView<int>& view,
              const core::ProcessSet&) {
    for (core::ProcId j : view.senders()) {
      min_ = std::min(min_, view[j]);
    }
    if (r >= decide_round_) decided_ = true;
  }

  /// Batch absorb for the engine (core::WordAbsorbProcess): advances
  /// every process one round in a handful of whole-word passes.
  /// delivered[i] is the word of S \ D(i,r). Observably equivalent to n
  /// absorb() calls; engine_equivalence_test checks that bit for bit
  /// against a wrapper that hides this hook.
  ///
  /// The kernel: one linear pass finds the round's global minimum m; any
  /// recipient that hears a sender holding m is settled by a single
  /// compare (m bounds everything it heard), so a fault-free round is two
  /// linear passes. Only recipients cut off from every holder fall back
  /// to a bit-scan over what they did hear -- bit-scan chains are
  /// latency-bound, which is why the common case avoids them entirely.
  static void absorb_round(std::vector<FloodMin>& processes, core::Round r,
                           const int* emitted,
                           const std::uint64_t* delivered) {
    const int n = static_cast<int>(processes.size());
    const std::uint64_t full = core::full_mask(n);
    int m = emitted[0];
    for (int j = 1; j < n; ++j) m = std::min(m, emitted[j]);
    // Lazily computed word of senders emitting m: a recipient that hears
    // everyone trivially hears a holder, so a fault-free round never
    // builds it.
    std::uint64_t holders = 0;
    std::uint64_t rest = 0;
    for (int i = 0; i < n; ++i) {
      FloodMin& p = processes[static_cast<std::size_t>(i)];
      const std::uint64_t del = delivered[i];
      bool hit = del == full;
      if (!hit) {
        if (holders == 0) {
          for (int j = 0; j < n; ++j) {
            holders |= static_cast<std::uint64_t>(emitted[j] == m) << j;
          }
        }
        hit = (del & holders) != 0;
      }
      if (hit) {
        // min over what i heard is exactly m; own state can only be
        // smaller if i suspects itself, hence the min.
        p.min_ = std::min(p.min_, m);
      } else {
        rest |= std::uint64_t{1} << i;
      }
      p.decided_ = p.decided_ || r >= p.decide_round_;
    }
    for (std::uint64_t u = rest; u != 0; u &= u - 1) {
      FloodMin& p = processes[static_cast<std::size_t>(std::countr_zero(u))];
      for (std::uint64_t s = delivered[std::countr_zero(u)]; s != 0;
           s &= s - 1) {
        p.min_ = std::min(p.min_, emitted[std::countr_zero(s)]);
      }
    }
  }

  bool decided() const { return decided_; }
  int decision() const {
    RRFD_REQUIRE(decided());
    return min_;
  }

  /// Current estimate (also readable before deciding).
  int current_min() const { return min_; }

 private:
  int min_;
  core::Round decide_round_;
  bool decided_ = false;
};

}  // namespace rrfd::agreement
