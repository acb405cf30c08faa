#include "util/radix.hpp"

#include <cstring>

#include "util/assert.hpp"

namespace topkmon {

namespace {

// 11-bit digits: six positions cover a 64-bit key (the last one holds nine
// live bits). Wider digits mean fewer scatter passes — the pass count, not
// the per-pass bandwidth, is what the sort costs — while 2048 counters per
// position still sit comfortably in L1.
constexpr std::size_t kDigitBits = 11;
constexpr std::size_t kDigits = (64 + kDigitBits - 1) / kDigitBits;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kBuckets - 1;

/// One sweep builds the histograms of all digit positions; a position where
/// one bucket holds every key needs no pass.
void build_histograms(const std::uint64_t* keys, std::size_t n,
                      std::uint32_t hist[kDigits][kBuckets]) {
  std::memset(hist, 0, kDigits * kBuckets * sizeof(std::uint32_t));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i];
    for (std::size_t d = 0; d < kDigits; ++d) {
      ++hist[d][(k >> (kDigitBits * d)) & kDigitMask];
    }
  }
}

/// Descending bucket offsets: bucket kBuckets−1 first, so each stable pass
/// orders its digit descending and the final order is descending
/// lexicographic.
void offsets_desc(const std::uint32_t* hist, std::uint32_t* offset) {
  std::uint32_t sum = 0;
  for (std::size_t b = kBuckets; b-- > 0;) {
    offset[b] = sum;
    sum += hist[b];
  }
}

}  // namespace

void radix_sort_desc(std::uint64_t* keys, std::size_t n, RadixScratch& scratch) {
  if (n < 2) return;
  TOPKMON_ASSERT_MSG(scratch.n() >= n, "radix scratch sized for smaller array");

  // 48 KB of counters — static thread-local rather than stack-allocated.
  static thread_local std::uint32_t hist[kDigits][kBuckets];
  build_histograms(keys, n, hist);

  std::uint64_t* src_k = keys;
  std::uint64_t* dst_k = scratch.keys();

  static thread_local std::uint32_t offset[kBuckets];
  for (std::size_t d = 0; d < kDigits; ++d) {
    // Skip positions where every key shares the digit — the pass would be
    // the identity permutation.
    bool trivial = false;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (hist[d][b] == n) {
        trivial = true;
        break;
      }
    }
    if (trivial) continue;

    offsets_desc(hist[d], offset);
    const unsigned shift = static_cast<unsigned>(kDigitBits * d);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = src_k[i];
      const std::uint32_t pos = offset[(k >> shift) & kDigitMask]++;
      dst_k[pos] = k;
    }
    std::swap(src_k, dst_k);
  }

  if (src_k != keys) {
    std::memcpy(keys, src_k, n * sizeof(std::uint64_t));
  }
}

}  // namespace topkmon
