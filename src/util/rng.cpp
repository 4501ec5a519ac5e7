#include "util/rng.h"

namespace rrfd {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro256** must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  RRFD_REQUIRE(bound > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  RRFD_REQUIRE(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // span wraps to 0 exactly when [lo, hi] covers the full int64 domain;
  // every raw draw is then a valid sample (below(0) would be a contract
  // violation).
  if (span == 0) return static_cast<std::int64_t>(next());
  // Offset in unsigned arithmetic: lo + draw can exceed int64 on the way
  // to a result in [lo, hi], and signed overflow is undefined.
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   below(span));
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::uniform01() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<int> Rng::permutation(int n) {
  RRFD_REQUIRE(n >= 0);
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  shuffle(p);
  return p;
}

std::vector<int> Rng::sample_without_replacement(int n, int k) {
  RRFD_REQUIRE(0 <= k && k <= n);
  std::vector<int> p = permutation(n);
  p.resize(static_cast<std::size_t>(k));
  return p;
}

Rng Rng::fork() {
  Rng child(0);
  // Derive the child's state from fresh draws of the parent so parent and
  // child streams are decorrelated and the fork itself advances the parent.
  child.reseed(next() ^ rotl(next(), 23));
  return child;
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream_index) {
  Rng out(0);
  // Two independent splitmix64 chains -- one walked from the seed, one
  // from the stream counter -- xor-combined per state word. Mixing the
  // *chains* (rather than reseeding from seed ^ stream_index) keeps pairs
  // like (s ^ d, i ^ d) from aliasing (s, i), and splitmix64's avalanche
  // decorrelates adjacent counters; rng_test pins the cross-correlation.
  std::uint64_t a = seed;
  std::uint64_t b = stream_index ^ 0xd1b54a32d192ed03ULL;
  for (auto& word : out.s_) word = splitmix64(a) ^ rotl(splitmix64(b), 23);
  if ((out.s_[0] | out.s_[1] | out.s_[2] | out.s_[3]) == 0) out.s_[0] = 1;
  return out;
}

}  // namespace rrfd
