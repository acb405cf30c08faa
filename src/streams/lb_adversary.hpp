// The adaptive lower-bound adversary of Theorem 5.1.
//
// Instance: sigma "candidate" nodes (ids 0..sigma−1) observe y0; the other
// n − sigma nodes observe clearly-smaller values. Each step the adversary
// inspects the online algorithm's *current filters and output* (allowed by
// the adaptive-adversary model) and drops one candidate that is presently in
// the output to a value y1 < (1−ε)·y0 chosen below that node's filter lower
// bound — forcing a filter violation and hence ≥ 1 online message. After
// sigma − k drops only k candidates remain at y0 (exactly the forced
// output); the phase ends and all candidates reset to y0.
//
// Per phase: the online algorithm sends ≥ sigma − k messages, while the
// offline algorithm — which knows the drop schedule — pays k unicasts plus
// one broadcast (k + 1 messages). Competitiveness is therefore Ω(σ/k),
// regardless of the (possibly different) error ε′ the offline side uses.
#pragma once

#include "sim/stream.hpp"

namespace topkmon {

struct LbAdversaryConfig {
  std::size_t n = 16;
  std::size_t k = 3;
  double epsilon = 0.1;  ///< the *online* algorithm's allowed error
  std::size_t sigma = 12;
  Value y0 = 1 << 20;
};

class LbAdversaryStream final : public StreamGenerator {
 public:
  explicit LbAdversaryStream(LbAdversaryConfig cfg);

  std::size_t n() const override { return cfg_.n; }
  void init(ValueVector& out, Rng& rng) override;
  void step(TimeStep t, const AdversaryView& view, ValueVector& out, Rng& rng) override;
  std::string_view name() const override { return "lb_adversary"; }
  std::unique_ptr<StreamGenerator> clone() const override;

  /// Completed adversary phases (each costs OPT ≤ k+1 messages).
  std::uint64_t phases_completed() const { return phases_; }
  /// Drops performed (each forces ≥ 1 online message).
  std::uint64_t drops_performed() const { return drops_total_; }

 private:
  void reset_phase(ValueVector& out);

  LbAdversaryConfig cfg_;
  Value y1_floor_ = 0;          ///< guaranteed < (1−ε)·y0
  std::size_t drops_in_phase_ = 0;
  std::uint64_t phases_ = 0;
  std::uint64_t drops_total_ = 0;
};

}  // namespace topkmon
