// Reflected lazy random walk per node — the regime the filter technique is
// designed for: values at time t+1 are "similar" to time t.
//
// Each step a node stays put with probability `laziness`, otherwise moves by
// a uniform step in [1, max_step], up or down, reflected into [lo, hi].
//
// Draw contract: one Rng drives the whole fleet, node by node in id order.
// Per node, `step` draws exactly what this loop draws:
//
//   if (rng.bernoulli(laziness)) continue;        // one draw iff 0 < laziness < 1
//   delta = rng.uniform_u64(1, max_step);         // one Lemire draw + rejections
//   up = rng.bernoulli(0.5);                      // one draw
//
// and nothing once laziness = 1. Values and the final Rng state are
// bit-identical to that loop (tests/test_streams.cpp checks it step by step).
// The number of draws per node varies, so node i's values depend on every
// node before it: a host cannot generate only its own node range. Per-node
// keyed randomness would lift that, at the price of new values.
#pragma once

#include "sim/stream.hpp"

namespace topkmon {

struct RandomWalkConfig {
  std::size_t n = 10;
  Value lo = 0;
  Value hi = 1 << 20;
  Value max_step = 64;
  double laziness = 0.25;
  /// If true, initial values are spread evenly over [lo, hi] (deterministic
  /// ranks at t = 0); otherwise uniform at random.
  bool spread_init = false;
};

class RandomWalkStream final : public StreamGenerator {
 public:
  explicit RandomWalkStream(RandomWalkConfig cfg);

  std::size_t n() const override { return cfg_.n; }
  void init(ValueVector& out, Rng& rng) override;
  void step(TimeStep t, const AdversaryView& view, ValueVector& out, Rng& rng) override;
  std::string_view name() const override { return "random_walk"; }
  std::unique_ptr<StreamGenerator> clone() const override;

 private:
  RandomWalkConfig cfg_;
};

}  // namespace topkmon
