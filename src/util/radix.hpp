// Branchless LSD radix sort for the order's dense-update fallback.
//
// When churn leaves the incremental order (model/topk_order.hpp) stale and
// the sorted values are demanded, the order is rebuilt by one sort of the
// fleet's values. This is a stable least-significant-digit radix sort:
// 11-bit digits, descending bucket order, one histogram sweep over all digit
// positions up front, and digit positions on which every key agrees are
// skipped outright — for monitored values bounded by 2^48 the top digit
// never pays a pass, and workloads confined to a value band skip more. Equal
// values are interchangeable, so the result is exactly std::sort with
// std::greater<>.
//
// Scratch is caller-owned (RadixScratch) and sized once, keeping the
// steady-state churn step allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace topkmon {

/// Reusable ping-pong buffer for the radix passes; allocate once per order
/// structure (n entries), reuse every rebuild.
class RadixScratch {
 public:
  explicit RadixScratch(std::size_t n) : keys_(n) {}

  std::size_t n() const { return keys_.size(); }
  std::uint64_t* keys() { return keys_.data(); }

 private:
  std::vector<std::uint64_t> keys_;
};

/// Sorts keys[0..n) descending, stable. `scratch.n() >= n` required.
void radix_sort_desc(std::uint64_t* keys, std::size_t n, RadixScratch& scratch);

}  // namespace topkmon
