#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace topkmon {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, DeriveProducesIndependentStreams) {
  Rng a = Rng::derive(42, 0);
  Rng b = Rng::derive(42, 1);
  Rng a2 = Rng::derive(42, 0);
  EXPECT_NE(a.next_u64(), b.next_u64());
  Rng a3 = Rng::derive(42, 0);
  EXPECT_EQ(a2.next_u64(), a3.next_u64());
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.below(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformU64RespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_u64(100, 200);
    EXPECT_GE(v, 100u);
    EXPECT_LE(v, 200u);
  }
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(19);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  const double p = static_cast<double>(hits) / trials;
  EXPECT_NEAR(p, 0.3, 0.01);
}

// The definition `below` had before it moved inline: Lemire's method with the
// rejection threshold computed on the draw that might be rejected.
std::uint64_t reference_below(Rng& rng, std::uint64_t n) {
  std::uint64_t x = rng.next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  std::uint64_t lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = rng.next_u64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

TEST(Rng, BernoulliBoundedMatchesBernoulliDrawForDraw) {
  for (const double p : {0x1.0p-60, 1.0 / 16384.0, 0.25, 0.5, 1.0 - 0x1.0p-53}) {
    SCOPED_TRACE(p);
    Rng fast(41);
    Rng ref(41);
    const std::uint64_t bound = Rng::bernoulli_bound(p);
    int hits = 0;
    for (int i = 0; i < 100000; ++i) {
      const bool got = fast.bernoulli_bounded(bound);
      ASSERT_EQ(got, ref.bernoulli(p)) << "draw " << i;
      hits += got ? 1 : 0;
    }
    EXPECT_EQ(fast.state(), ref.state());
    if (p == 0.5) EXPECT_NEAR(hits / 100000.0, 0.5, 0.01);
  }
  // The bound is exact at the edges of the 53-bit grid.
  EXPECT_EQ(Rng::bernoulli_bound(0x1.0p-60), 1u);
  EXPECT_EQ(Rng::bernoulli_bound(0.5), std::uint64_t{1} << 52);
  EXPECT_EQ(Rng::bernoulli_bound(1.0 - 0x1.0p-53), (std::uint64_t{1} << 53) - 1);
}

TEST(Rng, BelowMatchesReferenceLemireDrawForDraw) {
  // (1 << 63) + 1 rejects about half its draws; ~0 and 1 are the extremes.
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{7}, std::uint64_t{64},
        std::uint64_t{1000003}, (std::uint64_t{1} << 63) + 1, ~std::uint64_t{0}}) {
    SCOPED_TRACE(n);
    Rng rng(43);
    Rng ref(43);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(rng.below(n), reference_below(ref, n)) << "draw " << i;
      ASSERT_EQ(rng.state(), ref.state());
    }
  }
  // The rejection path really runs: 20000 values below 2^63 + 1 take more
  // than 20000 draws.
  Rng counted(43);
  Rng draws(43);
  std::uint64_t extra = 0;
  for (int i = 0; i < 20000; ++i) {
    counted.below((std::uint64_t{1} << 63) + 1);
    draws.next_u64();
    for (int k = 0; k < 200 && draws.state() != counted.state(); ++k) {
      draws.next_u64();
      ++extra;
    }
    ASSERT_EQ(draws.state(), counted.state());
  }
  EXPECT_GT(extra, 5000u);
}

TEST(Rng, UniformU64MatchesReferenceDrawForDraw) {
  Rng rng(47);
  Rng ref(47);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(rng.uniform_u64(1, 64), 1 + reference_below(ref, 64));
    ASSERT_EQ(rng.uniform_u64(0, ~std::uint64_t{0}), ref.next_u64());
    ASSERT_EQ(rng.uniform_u64(5, 5), 5 + reference_below(ref, 1));
  }
  EXPECT_EQ(rng.state(), ref.state());
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0.0, sq = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / trials;
  const double var = sq / trials - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, GeometricMean) {
  Rng rng(29);
  double sum = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(rng.geometric(0.25));
  }
  // E[failures before success] = (1-p)/p = 3.
  EXPECT_NEAR(sum / trials, 3.0, 0.1);
}

TEST(Zipf, RankOneMostProbable) {
  ZipfSampler zipf(100, 1.2);
  Rng rng(31);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    counts[zipf.sample(rng)]++;
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[1], counts[10]);
  for (const auto& [rank, cnt] : counts) {
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 100u);
  }
}

TEST(Zipf, AlphaZeroIsUniformish) {
  ZipfSampler zipf(10, 0.0);
  Rng rng(37);
  std::map<std::size_t, int> counts;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    counts[zipf.sample(rng)]++;
  }
  for (const auto& [rank, cnt] : counts) {
    EXPECT_NEAR(static_cast<double>(cnt) / trials, 0.1, 0.02) << "rank " << rank;
  }
}

TEST(Splitmix, KnownProgression) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), a);
}

}  // namespace
}  // namespace topkmon
