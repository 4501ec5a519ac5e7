// A set of process identifiers, the basic currency of RRFD predicates.
//
// D(i,r) -- the set of processes the fault detector tells p_i not to wait
// for in round r -- is a ProcessSet, as are views, suspicion unions, and
// quorums. Implemented as a 64-bit mask plus the system size n, so that
// complements are well-defined and mixing sets from systems of different
// sizes is a contract violation instead of a silent bug.
#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/check.h"

namespace rrfd::core {

/// Immutable-size set over {0..n-1} with value semantics.
class ProcessSet {
 public:
  /// The empty set over a system of `n` processes.
  explicit ProcessSet(int n) : n_(n), bits_(0) {
    RRFD_REQUIRE(0 < n && n <= kMaxProcesses);
  }

  /// The set containing exactly `members`, over a system of `n` processes.
  ProcessSet(int n, std::initializer_list<ProcId> members) : ProcessSet(n) {
    for (ProcId p : members) add(p);
  }

  /// The full set S = {0..n-1}.
  static ProcessSet all(int n) {
    ProcessSet s(n);
    s.bits_ = (n == kMaxProcesses) ? ~std::uint64_t{0}
                                   : ((std::uint64_t{1} << n) - 1);
    return s;
  }

  /// The empty set (same as the single-argument constructor; reads better
  /// at call sites that also use all()).
  static ProcessSet none(int n) { return ProcessSet(n); }

  /// The singleton {p}.
  static ProcessSet single(int n, ProcId p) { return ProcessSet(n, {p}); }

  int n() const { return n_; }
  int size() const { return std::popcount(bits_); }
  bool empty() const { return bits_ == 0; }
  bool full() const { return *this == all(n_); }

  bool contains(ProcId p) const {
    check_member(p);
    return (bits_ >> p) & 1;
  }

  void add(ProcId p) {
    check_member(p);
    bits_ |= std::uint64_t{1} << p;
  }

  void remove(ProcId p) {
    check_member(p);
    bits_ &= ~(std::uint64_t{1} << p);
  }

  /// Returns a copy with `p` added / removed (for fluent construction).
  ProcessSet with(ProcId p) const {
    ProcessSet s = *this;
    s.add(p);
    return s;
  }
  ProcessSet without(ProcId p) const {
    ProcessSet s = *this;
    s.remove(p);
    return s;
  }

  /// Set algebra. All binary operations require both operands to belong to
  /// the same system size.
  ProcessSet operator|(const ProcessSet& o) const {
    check_same(o);
    return from_bits(n_, bits_ | o.bits_);
  }
  ProcessSet operator&(const ProcessSet& o) const {
    check_same(o);
    return from_bits(n_, bits_ & o.bits_);
  }
  ProcessSet operator-(const ProcessSet& o) const {
    check_same(o);
    return from_bits(n_, bits_ & ~o.bits_);
  }
  ProcessSet& operator|=(const ProcessSet& o) { return *this = *this | o; }
  ProcessSet& operator&=(const ProcessSet& o) { return *this = *this & o; }
  ProcessSet& operator-=(const ProcessSet& o) { return *this = *this - o; }

  /// Complement with respect to S = {0..n-1}.
  ProcessSet complement() const { return all(n_) - *this; }

  bool subset_of(const ProcessSet& o) const {
    check_same(o);
    return (bits_ & ~o.bits_) == 0;
  }

  bool intersects(const ProcessSet& o) const {
    check_same(o);
    return (bits_ & o.bits_) != 0;
  }

  friend bool operator==(const ProcessSet& a, const ProcessSet& b) {
    return a.n_ == b.n_ && a.bits_ == b.bits_;
  }
  friend bool operator!=(const ProcessSet& a, const ProcessSet& b) {
    return !(a == b);
  }

  /// Total order (by system size then mask); lets ProcessSet key std::map.
  friend bool operator<(const ProcessSet& a, const ProcessSet& b) {
    if (a.n_ != b.n_) return a.n_ < b.n_;
    return a.bits_ < b.bits_;
  }

  /// Lowest member; requires non-empty. Theorem 3.1's decision rule picks
  /// the lowest identifier outside D(i,1), so this is on the hot path.
  ProcId min() const {
    RRFD_REQUIRE(!empty());
    return std::countr_zero(bits_);
  }

  /// Highest member; requires non-empty.
  ProcId max() const {
    RRFD_REQUIRE(!empty());
    return 63 - std::countl_zero(bits_);
  }

  /// Allocation-free iteration over members in increasing order; lets
  /// `for (ProcId p : set)` run on hot paths (one countr_zero + one
  /// clear-lowest-bit per member, no vector).
  class const_iterator {
   public:
    using value_type = ProcId;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    explicit const_iterator(std::uint64_t bits) : bits_(bits) {}

    ProcId operator*() const { return std::countr_zero(bits_); }
    const_iterator& operator++() {
      bits_ &= bits_ - 1;  // clear the lowest set bit
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.bits_ == b.bits_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.bits_ != b.bits_;
    }

   private:
    std::uint64_t bits_ = 0;
  };

  const_iterator begin() const { return const_iterator(bits_); }
  const_iterator end() const { return const_iterator(0); }

  /// Members in increasing order (allocates; prefer range-for on the set
  /// itself where the vector is not needed).
  std::vector<ProcId> members() const;

  /// Raw mask, exposed for hashing and compact trace encodings.
  std::uint64_t bits() const { return bits_; }

  /// Builds a set from a raw mask (must fit in n bits).
  static ProcessSet from_bits(int n, std::uint64_t bits) {
    ProcessSet s(n);
    RRFD_REQUIRE((bits & ~all(n).bits_) == 0);
    s.bits_ = bits;
    return s;
  }

  /// Renders as "{0,2,5}".
  std::string to_string() const;

 private:
  void check_member(ProcId p) const { RRFD_REQUIRE(0 <= p && p < n_); }
  void check_same(const ProcessSet& o) const { RRFD_REQUIRE(n_ == o.n_); }

  int n_;
  std::uint64_t bits_;
};

std::ostream& operator<<(std::ostream& os, const ProcessSet& s);

}  // namespace rrfd::core
