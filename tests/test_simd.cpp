// Differential fuzz of the SIMD lane primitives (util/simd.hpp) against
// straight scalar references written inline here.
//
// The dispatcher picks the widest ISA the CPU offers (or the scalar tier
// under TOPKMON_SIMD=OFF), so running this suite on both CI legs pins the
// vector and scalar paths to bit-identical results. Sizes straddle every
// lane boundary (0, 1, lane−1, lane, lane+1, odd tails) and values sit on
// the conversion/compare edges (0, 2^48, exact ties, ±inf bounds).
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "model/filter.hpp"
#include "model/oracle.hpp"
#include "util/rng.hpp"

namespace topkmon {
namespace {

const std::vector<std::size_t> kSizes = {0,  1,  2,  3,  4,  5,  7,  8,
                                         9,  15, 16, 17, 31, 33, 100, 1024};

ValueVector random_values(Rng& rng, std::size_t n, Value lo, Value hi) {
  ValueVector v(n);
  for (auto& x : v) x = lo + rng.below(hi - lo + 1);
  return v;
}

TEST(Simd, ActiveIsaIsReported) {
  const std::string isa = simd::active_isa();
  EXPECT_TRUE(isa == "avx2" || isa == "neon" || isa == "scalar")
      << isa;
}

TEST(Simd, CountDiffMatchesScalar) {
  Rng rng(1);
  for (const std::size_t n : kSizes) {
    for (int rep = 0; rep < 20; ++rep) {
      ValueVector a = random_values(rng, n, 0, 7);
      ValueVector b = a;
      for (auto& x : b) {
        if (rng.below(3) == 0) x = rng.below(8);
      }
      std::size_t expected = 0;
      for (std::size_t i = 0; i < n; ++i) {
        expected += a[i] != b[i];
      }
      EXPECT_EQ(simd::count_diff(a.data(), b.data(), n), expected) << "n=" << n;
    }
  }
}

TEST(Simd, CollectNonzeroMatchesScalar) {
  Rng rng(9);
  for (const std::size_t n : kSizes) {
    for (int rep = 0; rep < 20; ++rep) {
      // Densities from empty to full; set bytes are arbitrary non-zero values.
      const std::uint64_t one_in = 1 + static_cast<std::uint64_t>(rep % 5) * 3;
      std::vector<std::uint8_t> mask(n);
      std::vector<std::uint32_t> expected;
      for (std::size_t i = 0; i < n; ++i) {
        if (rep > 0 && rng.below(one_in) == 0) {
          mask[i] = static_cast<std::uint8_t>(1 + rng.below(255));
        }
        if (mask[i] != 0) expected.push_back(static_cast<std::uint32_t>(i));
      }
      std::vector<std::uint32_t> out(n + 1, 0xDEAD);
      const std::size_t got = simd::collect_nonzero(mask.data(), n, out.data());
      ASSERT_EQ(got, expected.size());
      for (std::size_t j = 0; j < got; ++j) {
        EXPECT_EQ(out[j], expected[j]) << "set index " << j;
      }
    }
  }
}

TEST(Simd, ViolationMaskMatchesFilterCheck) {
  Rng rng(2);
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t n : kSizes) {
    for (int rep = 0; rep < 20; ++rep) {
      ValueVector v = random_values(rng, n, 0, 1000);
      if (n > 0) v[rng.below(n)] = kMaxObservableValue;  // conversion edge
      std::vector<double> lo(n), hi(n);
      std::vector<Filter> filters(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Mix open, closed, point and boundary-exact filters, NaN bounds
        // (every compare with NaN is false) and inverted intervals.
        const double bound = static_cast<double>(rng.below(1001));
        const double nan = std::numeric_limits<double>::quiet_NaN();
        switch (rng.below(7)) {
          case 0: filters[i] = Filter::all(); break;
          case 1: filters[i] = Filter::at_least(bound); break;
          case 2: filters[i] = Filter::at_most(bound); break;
          case 3: filters[i] = Filter{nan, bound}; break;
          case 4: filters[i] = Filter{bound, nan}; break;
          case 5: filters[i] = Filter{bound + 1, bound}; break;
          default: filters[i] = Filter::point(static_cast<double>(v[i])); break;
        }
        if (rng.below(8) == 0) filters[i] = Filter{0.0, inf};
        lo[i] = filters[i].lo;
        hi[i] = filters[i].hi;
      }
      std::vector<std::uint8_t> mask(n, 0xAA);
      const std::size_t count =
          simd::violation_mask(v.data(), lo.data(), hi.data(), n, mask.data());
      std::size_t expected = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t want = filters[i].check(v[i]) != Violation::kNone ? 1 : 0;
        ASSERT_EQ(mask[i], want) << "lane " << i;
        expected += want;
      }
      EXPECT_EQ(count, expected);
    }
  }
}

TEST(Simd, MaxMergeAndScansMatchScalar) {
  Rng rng(3);
  for (const std::size_t n : kSizes) {
    for (int rep = 0; rep < 10; ++rep) {
      ValueVector a = random_values(rng, n, 0, kMaxObservableValue);
      ValueVector b = random_values(rng, n, 0, kMaxObservableValue);

      Value expected_max = 0;
      Value expected_min = ~Value{0};
      std::size_t expected_lt = 0;
      for (std::size_t i = 0; i < n; ++i) {
        expected_max = std::max(expected_max, a[i]);
        expected_min = std::min(expected_min, a[i]);
        expected_lt += a[i] < b[i];
      }
      EXPECT_EQ(simd::max_value(a.data(), n), expected_max);
      EXPECT_EQ(simd::min_value(a.data(), n), expected_min);
      EXPECT_EQ(simd::count_lt(a.data(), b.data(), n), expected_lt);

      ValueVector merged = a;
      simd::max_merge(merged.data(), b.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(merged[i], std::max(a[i], b[i])) << "lane " << i;
      }
    }
  }
}

TEST(Simd, CountEqU32MatchesScalar) {
  Rng rng(4);
  for (const std::size_t n : kSizes) {
    std::vector<std::uint32_t> v(n);
    for (auto& x : v) x = static_cast<std::uint32_t>(rng.below(4));
    for (std::uint32_t needle = 0; needle < 5; ++needle) {
      std::size_t expected = 0;
      for (const auto x : v) expected += x == needle;
      EXPECT_EQ(simd::count_eq_u32(v.data(), needle, n), expected);
    }
  }
}

TEST(Simd, EpsilonPartitionScansMatchOracleHelpers) {
  Rng rng(5);
  for (const std::size_t n : kSizes) {
    for (int rep = 0; rep < 10; ++rep) {
      ValueVector v = random_values(rng, n, 0, kMaxObservableValue);
      const Value vk = n == 0 ? 1 : v[rng.below(n)];
      const double eps = rep % 3 == 0 ? 0.0 : rng.uniform(0.0, 0.6);
      const double vkd = static_cast<double>(vk);

      std::size_t expected_not_smaller = 0;
      std::size_t expected_larger = 0;
      for (std::size_t i = 0; i < n; ++i) {
        expected_not_smaller += !clearly_smaller(v[i], vk, eps);
        expected_larger += clearly_larger(v[i], vk, eps);
      }
      EXPECT_EQ(simd::count_f64_ge(v.data(), (1.0 - eps) * vkd, n),
                expected_not_smaller);
      EXPECT_EQ(simd::count_scaled_gt(v.data(), 1.0 - eps, vkd, n), expected_larger);
    }
  }
}

TEST(Simd, SigmaScanEqualsSigmaAndSigmaSorted) {
  Rng rng(6);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t n = 1 + rng.below(500);
    // Tie-heavy bands around a pivot keep the ε-boundaries busy.
    ValueVector v = random_values(rng, n, 900, 1100);
    const std::size_t k = 1 + rng.below(std::min<std::size_t>(n, Oracle::kMaxScanK));
    const double eps = rep % 4 == 0 ? 0.0 : rng.uniform(0.0, 0.5);
    const std::size_t expected = Oracle::sigma({v.data(), v.size()}, k, eps);
    EXPECT_EQ(Oracle::sigma_scan({v.data(), v.size()}, k, eps), expected)
        << "n=" << n << " k=" << k << " eps=" << eps;
    EXPECT_EQ(Oracle::kth_largest({v.data(), v.size()}, k),
              Oracle::kth_value({v.data(), v.size()}, k));
  }
}

}  // namespace
}  // namespace topkmon
