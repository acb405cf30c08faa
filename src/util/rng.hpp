// Deterministic pseudo-random number generation.
//
// All randomness in the library flows through `Rng` (xoshiro256**), seeded
// explicitly. Sweep harnesses derive per-cell generators with
// `Rng::derive(seed, stream_id)` (splitmix64 mixing) so that experiment
// tables are bit-identical across runs and machines, and cells can run on a
// thread pool without sharing generator state.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace topkmon {

/// splitmix64 step; used for seeding and for deriving independent streams.
std::uint64_t splitmix64(std::uint64_t& state);

/// Mixes a salt into a master seed (per-trial / per-cell / per-query seed
/// derivation for sweeps and the multi-query engine).
std::uint64_t splitmix_combine(std::uint64_t seed, std::uint64_t salt);

/// xoshiro256** 1.0 — fast, high-quality, 256-bit state.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via splitmix64 of `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Independent generator for stream `stream_id` of a master `seed`.
  static Rng derive(std::uint64_t seed, std::uint64_t stream_id);

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// UniformRandomBitGenerator interface (usable with <random> adaptors).
  std::uint64_t operator()() { return next_u64(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) {
    TOPKMON_ASSERT(lo <= hi);
    const std::uint64_t span = hi - lo;
    if (span == ~0ULL) return next_u64();
    return lo + below(span + 1);
  }

  /// Uniform integer in [0, n) via Lemire's nearly-divisionless method with
  /// rejection for exact uniformity; requires n > 0. The rejection threshold
  /// (2^64 − n) mod n is computed only on the rare draw whose low word is
  /// under n, so a loop gains nothing by computing it up front.
  std::uint64_t below(std::uint64_t n) {
    TOPKMON_ASSERT(n > 0);
    __uint128_t m = static_cast<__uint128_t>(next_u64()) * n;
    if (static_cast<std::uint64_t>(m) < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (static_cast<std::uint64_t>(m) < threshold) {
        m = static_cast<__uint128_t>(next_u64()) * n;
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1): the top 53 bits of one draw.
  double uniform01() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]); draws
  /// only when 0 < p < 1.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// The integer bound ⌈p·2^53⌉ of `bernoulli(p)`, for 0 < p < 1.
  /// `bernoulli(p)` tests uniform01() = (x >> 11)·2^-53 < p. Both sides scale
  /// by 2^53 exactly, so on the integer u = x >> 11 the test is
  /// u < ⌈p·2^53⌉: `bernoulli_bounded(bernoulli_bound(p))` equals
  /// `bernoulli(p)` draw for draw, without the int→double conversion. For
  /// p ≤ 0 or p ≥ 1 `bernoulli` draws nothing; callers handle those p
  /// themselves.
  static std::uint64_t bernoulli_bound(double p) {
    TOPKMON_ASSERT(p > 0.0 && p < 1.0);
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  /// One Bernoulli trial against a bound from `bernoulli_bound`.
  bool bernoulli_bounded(std::uint64_t bound) { return (next_u64() >> 11) < bound; }

  /// Standard normal via Box-Muller (no cached spare; stateless wrt pairs).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Geometric: number of failures before first success, success prob p>0.
  std::uint64_t geometric(double p);

  const std::array<std::uint64_t, 4>& state() const { return s_; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<std::uint64_t, 4> s_;
};

/// Bounded Zipf(α) sampler over {1, .., n} using precomputed CDF.
/// Intended for workload generation (web-server load skew).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  /// Returns a rank in [1, n]; rank 1 is the most probable.
  std::size_t sample(Rng& rng) const;

  std::size_t n() const { return cdf_.size(); }
  double alpha() const { return alpha_; }

 private:
  std::vector<double> cdf_;
  double alpha_;
};

}  // namespace topkmon
