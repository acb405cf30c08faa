// The value radix sort (util/radix.hpp) against the comparator sort it
// replaced, and σ answered from a radix-sorted order against the oracle's
// ε-comparisons on the raw vector.
#include "util/radix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "model/oracle.hpp"
#include "util/rng.hpp"

namespace topkmon {
namespace {

TEST(Radix, SortedKeysMatchComparatorSort) {
  Rng rng(17);
  for (const std::size_t n : {1ul, 2ul, 7ul, 64ul, 1000ul, 3000ul}) {
    for (int rep = 0; rep < 20; ++rep) {
      ValueVector values(n);
      for (auto& v : values) {
        // Heavy tie mass plus occasional extremes.
        v = rng.below(4) == 0 ? rng.below(8) : rng.below(kMaxObservableValue + 1);
      }
      ValueVector expected = values;
      std::sort(expected.begin(), expected.end(), std::greater<Value>());

      RadixScratch scratch(n);
      radix_sort_desc(values.data(), n, scratch);
      ASSERT_EQ(values, expected) << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(Radix, SigmaOnRadixSortedOrderMatchesOracleEpsilonComparisons) {
  Rng rng(23);
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t n = 1 + rng.below(300);
    ValueVector values(n);
    for (auto& v : values) v = rng.below(1000) + 1;
    const std::size_t k = 1 + rng.below(n);
    const double epsilon = rng.below(2) == 0 ? 0.0 : rng.uniform(0.01, 0.5);

    ValueVector sorted(values);
    RadixScratch scratch(n);
    radix_sort_desc(sorted.data(), n, scratch);
    EXPECT_EQ(Oracle::sigma_sorted({sorted.data(), sorted.size()}, k, epsilon),
              Oracle::sigma({values.data(), values.size()}, k, epsilon))
        << "n=" << n << " k=" << k << " eps=" << epsilon;
  }
}

}  // namespace
}  // namespace topkmon
