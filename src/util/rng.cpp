#include "util/rng.hpp"

#include <cmath>
#include <vector>

#include "util/assert.hpp"

namespace topkmon {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t splitmix_combine(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ULL * (salt + 1));
  return splitmix64(s);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
  // xoshiro must not start in the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

Rng Rng::derive(std::uint64_t seed, std::uint64_t stream_id) {
  std::uint64_t sm = seed;
  const std::uint64_t a = splitmix64(sm);
  sm ^= 0xd1342543de82ef95ULL * (stream_id + 1);
  const std::uint64_t b = splitmix64(sm);
  return Rng(a ^ rotl(b, 17) ^ (stream_id * 0x9e3779b97f4a7c15ULL));
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

double Rng::normal(double mean, double stddev) {
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform01();
  double u2 = uniform01();
  double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * 3.14159265358979323846 * u2);
}

std::uint64_t Rng::geometric(double p) {
  TOPKMON_ASSERT(p > 0.0);
  if (p >= 1.0) return 0;
  const double u = 1.0 - uniform01();  // (0,1]
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : alpha_(alpha) {
  TOPKMON_ASSERT(n > 0);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t r = 1; r <= n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r), alpha);
    cdf_[r - 1] = acc;
  }
  for (auto& c : cdf_) {
    c /= acc;
  }
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform01();
  // Binary search first cdf_ entry >= u.
  std::size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + 1;
}

}  // namespace topkmon
