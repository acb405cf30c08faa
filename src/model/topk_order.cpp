#include "model/topk_order.hpp"

#include <algorithm>
#include <functional>

#include "model/oracle.hpp"
#include "util/assert.hpp"
#include "util/simd.hpp"

namespace topkmon {

TopKOrder::TopKOrder(std::size_t n)
    : shadow_(n, 0), sorted_desc_(n, 0), radix_(n), dirty_(n, 0) {
  TOPKMON_ASSERT(n > 0);
}

std::size_t TopKOrder::splice(Value old_value, Value new_value) {
  // First slot holding a value <= old_value: an occurrence of old_value.
  const auto rm = std::lower_bound(sorted_desc_.begin(), sorted_desc_.end(),
                                   old_value, std::greater<Value>());
  if (new_value < old_value) {
    // New value moves toward the tail: first slot (beyond rm) <= new_value.
    const auto ins = std::lower_bound(rm + 1, sorted_desc_.end(), new_value,
                                      std::greater<Value>());
    std::move(rm + 1, ins, rm);  // close the gap leftward
    *(ins - 1) = new_value;
    return static_cast<std::size_t>(ins - 1 - rm);
  }
  // New value moves toward the head.
  const auto ins = std::lower_bound(sorted_desc_.begin(), rm, new_value,
                                    std::greater<Value>());
  std::move_backward(ins, rm, rm + 1);  // open a gap rightward
  *ins = new_value;
  return static_cast<std::size_t>(rm - ins);
}

void TopKOrder::rebuild() const {
  std::copy(shadow_.begin(), shadow_.end(), sorted_desc_.begin());
  radix_sort_desc(sorted_desc_.data(), sorted_desc_.size(), radix_);
  sorted_fresh_ = true;
  ++rebuilds_;
}

void TopKOrder::update(std::span<const Value> values) {
  const std::size_t n = shadow_.size();
  TOPKMON_ASSERT_MSG(values.size() == n, "observation vector sized for wrong fleet");
  if (!ready_) {
    std::copy(values.begin(), values.end(), shadow_.begin());
    rebuild();
    ready_ = true;
    return;
  }
  // Pass 1: one vectorized compare sweep counts the dirty set; on a
  // quiescent step this is the whole cost of order maintenance, and on a
  // dense step no index extraction is wasted on an order nobody reads.
  const std::size_t changed = simd::count_diff(shadow_.data(), values.data(), n);
  if (changed == 0) return;
  if (static_cast<double>(changed) > kRebuildFraction * static_cast<double>(n)) {
    // Churn storm: park the raw vector and defer the sort — σ(t) is served
    // by exact partition scans until the order is actually demanded.
    std::copy(values.begin(), values.end(), shadow_.begin());
    sorted_fresh_ = false;
    return;
  }
  if (!sorted_fresh_) {
    std::copy(values.begin(), values.end(), shadow_.begin());
    if (static_cast<double>(changed) <
        kRepairResumeFraction * static_cast<double>(n)) {
      // Churn subsided for real: one sort re-arms incremental splicing.
      rebuild();
    }
    // Otherwise stay in scan mode — moderately busy steps are cheaper as
    // partition scans than as a sort or a storm of long splices.
    return;
  }
  // Pass 2: splice each dirty value. The array stays sorted after every
  // splice, so the final state is the new vector's multiset in order. A
  // displacement budget guards against scattered large moves (see header).
  simd::collect_diff(shadow_.data(), values.data(), n, dirty_.data());
  std::size_t budget = kRepairBudgetFactor * n;
  for (std::size_t j = 0; j < changed; ++j) {
    const std::uint32_t i = dirty_[j];
    budget -= std::min(budget, splice(shadow_[i], values[i]));
    shadow_[i] = values[i];
    ++repairs_;
    if (budget == 0 && j + 1 < changed) {
      // Absorb the rest of the dirty set into the shadow and fall into scan
      // mode — identical results, bounded cost.
      for (std::size_t jj = j + 1; jj < changed; ++jj) {
        shadow_[dirty_[jj]] = values[dirty_[jj]];
      }
      sorted_fresh_ = false;
      return;
    }
  }
}

Value TopKOrder::kth_value(std::size_t k) const {
  TOPKMON_ASSERT(ready_ && k >= 1 && k <= sorted_desc_.size());
  return sorted_values()[k - 1];
}

std::size_t TopKOrder::sigma(std::size_t k, double epsilon) const {
  TOPKMON_ASSERT(ready_);
  if (!sorted_fresh_ && k <= Oracle::kMaxScanK) {
    return Oracle::sigma_scan({shadow_.data(), shadow_.size()}, k, epsilon);
  }
  return Oracle::sigma_sorted(sorted_values(), k, epsilon);
}

}  // namespace topkmon
