// Ground-truth oracle for one observation vector.
//
// Centralized (free) computation of the quantities in Sect. 2 of the paper:
// ranks π(i,t), the k-th largest value, the clearly-larger range E(t), the
// ε-neighborhood A(t), the neighborhood node set K(t), σ(t) = |K(t)|, and the
// output-correctness predicate for F(t). The simulator uses these to validate
// protocols after every step (strict mode); protocols themselves never touch
// the oracle.
//
// ε-comparisons are written in multiplication form — `(1−ε)·x ≤ y` — in
// exactly one place (the helpers below) so protocols and the validator agree
// bit-for-bit on borderline cases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/band_ladder.hpp"
#include "model/types.hpp"

namespace topkmon {

/// v is "clearly larger" than the k-th value vk:  v > vk / (1−ε),
/// evaluated as (1−ε)·v > vk to avoid division.
inline bool clearly_larger(Value v, Value vk, double epsilon) {
  return (1.0 - epsilon) * static_cast<double>(v) > static_cast<double>(vk);
}

/// v lies in the ε-neighborhood A(t) = [(1−ε)·vk, vk/(1−ε)].
inline bool in_neighborhood(Value v, Value vk, double epsilon) {
  const double x = static_cast<double>(v);
  const double y = static_cast<double>(vk);
  return x >= (1.0 - epsilon) * y && (1.0 - epsilon) * x <= y;
}

/// v is "clearly smaller" than vk:  v < (1−ε)·vk.
inline bool clearly_smaller(Value v, Value vk, double epsilon) {
  return static_cast<double>(v) < (1.0 - epsilon) * static_cast<double>(vk);
}

class Oracle {
 public:
  /// Node ids ordered by rank (descending value, id tie-break); element 0 is
  /// the maximum. O(n log n).
  static std::vector<NodeId> ranking(std::span<const Value> values);

  /// Ids of the k highest-ranked nodes, sorted ascending by id.
  static OutputSet top_k(std::span<const Value> values, std::size_t k);

  /// The node π(k,t) observing the k-th largest value (1-based k).
  static NodeId kth_node(std::span<const Value> values, std::size_t k);

  /// The k-th largest value v_π(k,t).
  static Value kth_value(std::span<const Value> values, std::size_t k);

  /// K(t): ids of nodes inside the ε-neighborhood of the k-th value, sorted.
  static std::vector<NodeId> neighborhood(std::span<const Value> values, std::size_t k,
                                          double epsilon);

  /// σ(t) = |K(t)|.
  static std::size_t sigma(std::span<const Value> values, std::size_t k, double epsilon);

  /// σ(t) from values already sorted descending — O(n) without allocation
  /// (the neighborhood is a contiguous range of the sorted order). Used by
  /// the engine's shared snapshot so Q queries sort once, not Q times.
  static std::size_t sigma_sorted(std::span<const Value> sorted_desc, std::size_t k,
                                  double epsilon);

  /// Largest k for which sigma_scan is available (the single-pass selection
  /// buffer is fixed-size so scan mode stays allocation-free).
  static constexpr std::size_t kMaxScanK = 128;

  /// Exact k-th largest value of the multiset (duplicates count), k ≤
  /// kMaxScanK: one branch-predictable selection pass, no sort, no
  /// allocation.
  static Value kth_largest(std::span<const Value> values, std::size_t k);

  /// σ(t) from *unsorted* values, k ≤ kMaxScanK: selection scan for v_k plus
  /// two vectorized ε-partition scans (util/simd.hpp). The lane predicates
  /// are the exact expressions of the ε-helpers above, and neighborhood
  /// membership is order-independent, so the result is bit-identical to
  /// sigma()/sigma_sorted() — without materializing any order. This is the
  /// churn-storm σ path: O(n) bandwidth-bound instead of a sort per step.
  static std::size_t sigma_scan(std::span<const Value> values, std::size_t k,
                                double epsilon);

  /// Output correctness per Sect. 2: |F| = k, every clearly-larger node is in
  /// F, and every remaining member of F lies in the ε-neighborhood.
  static bool output_valid(std::span<const Value> values, std::size_t k, double epsilon,
                           const OutputSet& output);

  /// Human-readable reason why `output` is invalid ("" if valid); strict
  /// mode (`Simulator::validate_strict`) aborts with it.
  static std::string explain_invalid(std::span<const Value> values, std::size_t k,
                                     double epsilon, const OutputSet& output);

  /// ε-approximate k-select validity: "" if the answer lies in the
  /// ε-neighborhood A(t) of the true k-th largest value, i.e.
  /// (1−ε)·v_k ≤ answer and (1−ε)·answer ≤ v_k — the correctness contract of
  /// KSelectQueries (arXiv:1709.07259) — else a human-readable reason. Strict
  /// mode (`Simulator::validate_strict`) and the fuzz harness check it.
  static std::string explain_kselect_invalid(std::span<const Value> values,
                                             std::size_t k, double epsilon,
                                             Value answer);

  /// Exact count-distinct baseline (QueryKind::kCountDistinct): the number
  /// of distinct ladder bands occupied by `values`. With unit bands (ε = 0)
  /// this is the exact number of distinct values. O(n log n).
  static std::uint64_t distinct_count(std::span<const Value> values,
                                      const BandLadder& ladder);

  /// Convenience overload building the ε-ladder internally (tests/fuzz; the
  /// strict validator caches a ladder instead, ε is fixed per run).
  static std::uint64_t distinct_count(std::span<const Value> values, double epsilon);

  /// Exact threshold baseline (QueryKind::kThreshold): how many nodes hold a
  /// value strictly above `threshold`; the alert predicate is `> 0`. O(n).
  static std::uint64_t count_above(std::span<const Value> values, Value threshold);
};

}  // namespace topkmon
