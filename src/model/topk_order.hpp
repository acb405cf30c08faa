// TopKOrder — σ(t) for the batched hot path, from a shadow of the last vector.
//
// The only order statistic the server side consumes per step is the
// neighborhood size σ(t) = |K(t)| (Mäcker et al., IPDPS 2016, Sect. 2): the
// protocols output top-k *positions*, and the Oracle checks those against
// the raw vector. σ(t) is a pure function of the value multiset, so this
// class keeps values alone — a shadow copy of the last absorbed vector.
//
// Each step absorbs the fleet's observation vector with one vectorized
// compare pass against the shadow (util/simd.hpp) and reports whether any
// value changed, so callers reuse σ(t) across quiescent steps. σ(t) itself
// is Oracle::sigma_scan on the shadow: a selection pass for v_k plus two
// vectorized ε-partition scans, exact and allocation-free for
// k ≤ Oracle::kMaxScanK. Larger k sort a scratch copy and read
// Oracle::sigma_sorted; the scratch is sized on first use. Both paths build
// on the exact ε-comparison helpers of model/oracle.hpp, so either equals
// Oracle::sigma bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/types.hpp"
#include "util/simd.hpp"

namespace topkmon {

class TopKOrder {
 public:
  /// Shadow for an n-node fleet, allocated here, once.
  explicit TopKOrder(std::size_t n);

  std::size_t n() const { return shadow_.size(); }

  /// Absorbs the step's observation vector (size n) into the shadow; returns
  /// whether it differs from the previous one (true on the first call), i.e.
  /// whether σ(t) may have changed. Allocation-free.
  bool update(std::span<const Value> values);

  /// True once update() has absorbed a vector.
  bool ready() const { return ready_; }

  /// σ(t) = |K(t)| for (k, ε) on the last absorbed vector; bit-identical to
  /// Oracle::sigma on it (see file comment).
  std::size_t sigma(std::size_t k, double epsilon) const;

  /// Always 0: the class keeps no sorted order to repair or rebuild. They
  /// stay only because perfbench's `model.order_repairs` and
  /// `model.order_rebuilds` rows read them.
  std::uint64_t repairs() const { return 0; }
  std::uint64_t rebuilds() const { return 0; }

 private:
  /// Last absorbed vector, by node id; cache-line aligned for the scans.
  std::vector<Value, simd::CacheLineAllocator<Value>> shadow_;
  mutable ValueVector sorted_scratch_;  ///< k > kMaxScanK only; sized on first use
  bool ready_ = false;
};

}  // namespace topkmon
