#include "model/topk_order.hpp"

#include <algorithm>
#include <functional>

#include "model/oracle.hpp"
#include "util/assert.hpp"
#include "util/simd.hpp"

namespace topkmon {

TopKOrder::TopKOrder(std::size_t n) : shadow_(n, 0) { TOPKMON_ASSERT(n > 0); }

bool TopKOrder::update(std::span<const Value> values) {
  const std::size_t n = shadow_.size();
  TOPKMON_ASSERT_MSG(values.size() == n, "observation vector sized for wrong fleet");
  if (ready_ && simd::count_diff(shadow_.data(), values.data(), n) == 0) {
    return false;
  }
  std::copy(values.begin(), values.end(), shadow_.begin());
  ready_ = true;
  return true;
}

std::size_t TopKOrder::sigma(std::size_t k, double epsilon) const {
  TOPKMON_ASSERT(ready_);
  if (k <= Oracle::kMaxScanK) {
    return Oracle::sigma_scan({shadow_.data(), shadow_.size()}, k, epsilon);
  }
  sorted_scratch_.assign(shadow_.begin(), shadow_.end());
  std::sort(sorted_scratch_.begin(), sorted_scratch_.end(), std::greater<Value>());
  return Oracle::sigma_sorted({sorted_scratch_.data(), sorted_scratch_.size()}, k,
                              epsilon);
}

}  // namespace topkmon
