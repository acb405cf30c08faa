// TopKOrder — incremental order maintenance for the batched hot path.
//
// The per-step quantities the server side needs — the k-th largest value
// v_π(k,t) and the neighborhood size σ(t) — cost an O(n log n) sort when
// recomputed from scratch every step. The protocols' whole point (Mäcker et
// al., IPDPS 2016) is that quiescent steps do no *communication* work; this
// structure makes them do (almost) no *local* work either. Only the
// protocols output top-k *positions*, and the Oracle checks those against
// the raw vector, so the order keeps values alone: the fleet's descending
// multiset.
//
// Each step absorbs the fleet's observation vector by diffing it against a
// shadow copy with one vectorized compare-and-extract pass (util/simd.hpp):
// unchanged nodes cost a fraction of a SIMD lane, and each changed value is
// spliced in place — one binary search for its old slot, one for its new
// slot, one memmove of the values in between. Two triggers stop splicing:
// a step disturbing more than `kRebuildFraction` of the fleet, and a pass
// whose accumulated rank displacement exceeds `kRepairBudgetFactor`·n
// (scattered large displacements make individually-cheap splices
// collectively quadratic).
//
// Either trigger parks the raw vector in the shadow and marks the sorted
// array stale: the hot path consumes only σ(t), which Oracle::sigma_scan
// answers exactly from the unsorted vector with a selection pass plus two
// vectorized ε-partition scans. The sort — an LSD radix sort over the
// values (util/radix.hpp) — runs lazily, when the order is actually
// demanded: an accessor, a k past the scan cutoff, or churn subsiding below
// `kRepairResumeFraction`, which re-arms splicing. Every path answers from
// the same multiset, so splice / sort / scan is a pure performance choice
// and results stay bit-identical across machines and SIMD tiers.
//
// Steady-state stepping allocates nothing: every buffer is sized on
// construction (asserted via the counting allocator hook in
// util/alloc_counter.hpp where enabled). σ(t) is answered with two binary
// searches over the sorted values while the order is fresh, and by
// sigma_scan's partition scans while it is parked — both built on the exact
// ε-comparison helpers of model/oracle.hpp, so either equals Oracle::sigma
// bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/types.hpp"
#include "util/radix.hpp"

namespace topkmon {

class TopKOrder {
 public:
  /// Order over an n-node fleet; all steady-state buffers are allocated
  /// here, once.
  explicit TopKOrder(std::size_t n);

  std::size_t n() const { return shadow_.size(); }

  /// Absorbs the step's observation vector (size n). First call sorts;
  /// subsequent calls diff against the previous vector and splice only the
  /// changed values. Allocation-free.
  void update(std::span<const Value> values);

  /// True once update() has absorbed a vector.
  bool ready() const { return ready_; }

  /// The value of rank k (1-based): v_π(k,t).
  Value kth_value(std::size_t k) const;

  /// σ(t) = |K(t)| for (k, ε); bit-identical to Oracle::sigma on the same
  /// vector. O(log n) binary searches while the order is fresh, exact
  /// ε-partition scans while churn keeps it parked (see file comment).
  std::size_t sigma(std::size_t k, double epsilon) const;

  /// Values in descending order (contiguous; valid until the next update);
  /// forces the deferred sort if churn left the order stale.
  std::span<const Value> sorted_values() const {
    if (!sorted_fresh_) rebuild();
    return {sorted_desc_.data(), sorted_desc_.size()};
  }

  /// Values spliced incrementally / full sorts (the first one included)
  /// since construction — observability counters for tests and benches.
  std::uint64_t repairs() const { return repairs_; }
  std::uint64_t rebuilds() const { return rebuilds_; }

  /// Steps disturbing more than this fraction of the fleet park the raw
  /// vector (scan mode) instead of splicing.
  static constexpr double kRebuildFraction = 0.125;

  /// Splice passes whose accumulated rank displacement exceeds this
  /// multiple of n bail into scan mode (identical results, bounded cost).
  static constexpr std::size_t kRepairBudgetFactor = 4;

  /// A stale order is only re-sorted — re-arming splices — once a step
  /// disturbs fewer than this fraction of the fleet; busier steps stay in
  /// scan mode, where σ(t) needs no order at all.
  static constexpr double kRepairResumeFraction = 1.0 / 64.0;

 private:
  /// Replaces one occurrence of `old_value` by `new_value`; returns the rank
  /// displacement |new slot − old slot|.
  std::size_t splice(Value old_value, Value new_value);
  void rebuild() const;

  ValueVector shadow_;  ///< last absorbed vector, by node id
  // The same values sorted descending — lazily: stale while churn parks the
  // raw vector (mutable so const accessors can force the sort).
  mutable ValueVector sorted_desc_;
  mutable RadixScratch radix_;
  mutable bool sorted_fresh_ = false;
  std::vector<std::uint32_t> dirty_;  ///< vector diff scratch (node ids)
  std::uint64_t repairs_ = 0;
  mutable std::uint64_t rebuilds_ = 0;
  bool ready_ = false;
};

}  // namespace topkmon
