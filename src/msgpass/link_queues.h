// Per-link FIFO queues with per-source pending-destination masks: the
// one link-pick mechanism of both msgpass simulators (EventNet and
// RoundEnforcedSim).
//
// Link src -> dst has index src * n + dst. A seeded pick draws
// below(pending()) once and takes the k-th non-empty link in ascending
// index order, which nth() finds from the masks with popcount and
// bit-select instead of a rebuilt O(n^2) vector of ready links.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "core/types.h"
#include "core/words.h"

namespace rrfd::msgpass {

template <typename T>
class LinkQueues {
 public:
  explicit LinkQueues(int n)
      : n_(static_cast<std::size_t>(n)),
        queues_(n_ * n_),
        pending_dst_(n_, 0) {}

  std::size_t links() const { return queues_.size(); }
  std::size_t queued(std::size_t link) const { return queues_[link].size(); }
  bool ready(std::size_t link) const {
    return link < queues_.size() && !queues_[link].empty();
  }

  void push(core::ProcId src, core::ProcId dst, T item) {
    const auto s = static_cast<std::size_t>(src);
    queues_[s * n_ + static_cast<std::size_t>(dst)].push_back(std::move(item));
    pending_dst_[s] |= std::uint64_t{1} << dst;
  }

  /// Number of non-empty links.
  int pending() const {
    int count = 0;
    for (const std::uint64_t dsts : pending_dst_) count += std::popcount(dsts);
    return count;
  }

  /// Index of the k-th non-empty link in ascending order, k < pending().
  std::size_t nth(int k) const {
    std::size_t src = 0;
    for (;; ++src) {
      const int c = std::popcount(pending_dst_[src]);
      if (k < c) break;
      k -= c;
    }
    return src * n_ +
           static_cast<std::size_t>(core::nth_set_bit(pending_dst_[src], k));
  }

  /// Removes and returns the head of a non-empty link.
  T pop(std::size_t link) {
    std::deque<T>& q = queues_[link];
    T item = std::move(q.front());
    q.pop_front();
    if (q.empty()) {
      pending_dst_[link / n_] &= ~(std::uint64_t{1} << (link % n_));
    }
    return item;
  }

  /// Drops everything queued from `src`.
  void drop_from(core::ProcId src) {
    const auto s = static_cast<std::size_t>(src);
    for (std::uint64_t& m = pending_dst_[s]; m != 0; m &= m - 1) {
      queues_[s * n_ + static_cast<std::size_t>(std::countr_zero(m))].clear();
    }
  }

  /// Drops everything queued towards a destination in `dsts`; returns
  /// pending() afterwards.
  int drop_to(std::uint64_t dsts) {
    int count = 0;
    for (std::size_t src = 0; src < n_; ++src) {
      std::uint64_t& pending = pending_dst_[src];
      for (std::uint64_t m = pending & dsts; m != 0; m &= m - 1) {
        queues_[src * n_ + static_cast<std::size_t>(std::countr_zero(m))]
            .clear();
      }
      pending &= ~dsts;
      count += std::popcount(pending);
    }
    return count;
  }

 private:
  std::size_t n_;
  std::vector<std::deque<T>> queues_;
  /// pending_dst_[src] bit d <=> queues_[src * n + d] is non-empty.
  std::vector<std::uint64_t> pending_dst_;
};

}  // namespace rrfd::msgpass
