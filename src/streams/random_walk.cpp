#include "streams/random_walk.hpp"

#include "util/assert.hpp"

namespace topkmon {

RandomWalkStream::RandomWalkStream(RandomWalkConfig cfg) : cfg_(cfg) {
  TOPKMON_ASSERT(cfg_.n > 0);
  TOPKMON_ASSERT(cfg_.lo <= cfg_.hi);
  TOPKMON_ASSERT(cfg_.hi <= kMaxObservableValue);
  TOPKMON_ASSERT(cfg_.max_step >= 1);
  TOPKMON_ASSERT(cfg_.laziness >= 0.0 && cfg_.laziness <= 1.0);
}

void RandomWalkStream::init(ValueVector& out, Rng& rng) {
  if (cfg_.spread_init) {
    const double span = static_cast<double>(cfg_.hi - cfg_.lo);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = cfg_.lo + static_cast<Value>(span * (static_cast<double>(i) + 0.5) /
                                            static_cast<double>(out.size()));
    }
  } else {
    for (auto& v : out) {
      v = rng.uniform_u64(cfg_.lo, cfg_.hi);
    }
  }
}

void RandomWalkStream::step(TimeStep, const AdversaryView&, ValueVector& out,
                            Rng& rng) {
  // bernoulli(1) keeps every node put without a draw.
  if (cfg_.laziness >= 1.0) return;
  // bernoulli(0) moves every node without a draw.
  const bool lazy_draws = cfg_.laziness > 0.0;
  const std::uint64_t lazy_bound = lazy_draws ? Rng::bernoulli_bound(cfg_.laziness) : 0;
  const std::uint64_t up_bound = Rng::bernoulli_bound(0.5);
  const Value steps = cfg_.max_step;
  const Value lo = cfg_.lo;
  const Value hi = cfg_.hi;
  // Drawing from a local copy keeps the xoshiro state in registers instead
  // of storing it through the reference on every draw.
  Rng local = rng;
  for (auto& v : out) {
    if (lazy_draws && local.bernoulli_bounded(lazy_bound)) continue;
    // uniform_u64(1, max_step) = 1 + below(max_step).
    const Value delta = 1 + local.below(steps);
    const bool up = local.bernoulli_bounded(up_bound);
    // Move up reflecting at hi, or down reflecting at lo; both are computed
    // and selected so the coin flip costs no branch.
    const Value headroom = hi - v;
    const Value room = v - lo;
    const Value raised = delta <= headroom ? v + delta : hi - (delta - headroom);
    const Value lowered = delta <= room ? v - delta : lo + (delta - room);
    Value next = up ? raised : lowered;
    next = next < lo ? lo : next;
    v = next > hi ? hi : next;
  }
  rng = local;
}

std::unique_ptr<StreamGenerator> RandomWalkStream::clone() const {
  return std::make_unique<RandomWalkStream>(cfg_);
}

}  // namespace topkmon
