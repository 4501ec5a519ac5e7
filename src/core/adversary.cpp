#include "core/adversary.h"

#include <vector>

namespace rrfd::core {

FaultPattern record_pattern(Adversary& adversary, Round rounds) {
  RRFD_REQUIRE(rounds >= 0);
  FaultPattern pattern(adversary.n());
  pattern.reserve_rounds(rounds);
  std::vector<std::uint64_t> d(static_cast<std::size_t>(adversary.n()));
  for (Round r = 1; r <= rounds; ++r) {
    adversary.next_round(d.data());
    pattern.append(d.data());
  }
  return pattern;
}

}  // namespace rrfd::core
