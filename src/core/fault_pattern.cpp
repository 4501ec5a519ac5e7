#include "core/fault_pattern.h"

#include <array>
#include <sstream>

namespace rrfd::core {

ProcessSet union_over(const RoundFaults& round) {
  RRFD_REQUIRE(!round.empty());
  ProcessSet u(round.front().n());
  for (const ProcessSet& d : round) u |= d;
  return u;
}

ProcessSet intersection_over(const RoundFaults& round) {
  RRFD_REQUIRE(!round.empty());
  ProcessSet x = ProcessSet::all(round.front().n());
  for (const ProcessSet& d : round) x &= d;
  return x;
}

RoundFaults uniform_round(int n, const ProcessSet& d) {
  RRFD_REQUIRE(d.n() == n);
  return RoundFaults(static_cast<std::size_t>(n), d);
}

void FaultPattern::append(const std::uint64_t* d) {
  const std::uint64_t full = full_mask(n_);
  for (int i = 0; i < n_; ++i) {
    RRFD_REQUIRE_MSG((d[i] & ~full) == 0,
                     "D(i,r) names a process outside {0..n-1}");
    RRFD_REQUIRE_MSG(d[i] != full,
                     "D(i,r) = S is forbidden: not all processes can be late");
  }
  words_.insert(words_.end(), d, d + n_);
}

void FaultPattern::append(const RoundFaults& round) {
  RRFD_REQUIRE(static_cast<int>(round.size()) == n_);
  std::array<std::uint64_t, kMaxProcesses> d{};
  for (std::size_t i = 0; i < round.size(); ++i) {
    RRFD_REQUIRE(round[i].n() == n_);
    d[i] = round[i].bits();
  }
  append(d.data());
}

RoundFaults FaultPattern::round(Round r) const {
  const std::uint64_t* d = words(r);
  RoundFaults out;
  out.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) out.push_back(ProcessSet::from_bits(n_, d[i]));
  return out;
}

ProcessSet FaultPattern::round_union(Round r) const {
  const std::uint64_t* d = words(r);
  std::uint64_t u = 0;
  for (int i = 0; i < n_; ++i) u |= d[i];
  return ProcessSet::from_bits(n_, u);
}

ProcessSet FaultPattern::round_intersection(Round r) const {
  const std::uint64_t* d = words(r);
  std::uint64_t x = full_mask(n_);
  for (int i = 0; i < n_; ++i) x &= d[i];
  return ProcessSet::from_bits(n_, x);
}

ProcessSet FaultPattern::cumulative_union(Round up_to) const {
  if (up_to < 0) up_to = rounds();
  RRFD_REQUIRE(up_to <= rounds());
  std::uint64_t u = 0;
  for (std::size_t k = 0;
       k < static_cast<std::size_t>(up_to) * static_cast<std::size_t>(n_);
       ++k) {
    u |= words_[k];
  }
  return ProcessSet::from_bits(n_, u);
}

FaultPattern FaultPattern::prefix(Round r) const {
  RRFD_REQUIRE(0 <= r && r <= rounds());
  FaultPattern p(n_);
  p.words_.assign(words_.begin(),
                  words_.begin() + static_cast<std::ptrdiff_t>(r) * n_);
  return p;
}

std::string FaultPattern::to_string() const {
  std::ostringstream os;
  for (Round r = 1; r <= rounds(); ++r) {
    os << "round " << r << ":";
    for (ProcId i = 0; i < n_; ++i) {
      os << " D(" << i << ")=" << d(i, r).to_string();
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace rrfd::core
