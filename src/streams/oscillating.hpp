// Dense ε-neighborhood workload (the regime motivating the approximate
// problem, Sect. 1 and 5 of the paper).
//
// Construction guaranteeing σ(t) == sigma at every step:
//   * `sigma` oscillator nodes draw uniform values in [a, b] with
//     a = ceil((1−ε)·b): any two oscillator values x, y satisfy
//     x ≥ (1−ε)·y, so whenever the k-th largest value is an oscillator the
//     *entire* oscillator group lies inside A(t).
//   * `high` nodes (clearly larger) sit far above b/(1−ε); `low` nodes
//     (clearly smaller) sit far below (1−ε)·a; both drift mildly.
//   * high-count h is chosen so the k-th largest is always an oscillator:
//     h = 0 if sigma ≥ k, else h = k − (sigma+1)/2 (then h < k ≤ h + sigma).
// An exact monitor must chase every rank swap inside the group; an
// ε-monitor can stay silent — this is experiment E6/E7's workload.
#pragma once

#include "sim/stream.hpp"

namespace topkmon {

struct OscillatingConfig {
  std::size_t n = 20;
  std::size_t k = 5;
  double epsilon = 0.1;
  std::size_t sigma = 10;    ///< number of ε-neighborhood oscillators (≥ 1)
  Value band_top = 1 << 16;  ///< b; oscillators live in [(1−ε)b, b]
  /// Fraction of oscillators re-drawn each step (1.0 = all move every step).
  double churn = 1.0;
  /// Per-step random walk of the band ceiling, as a fraction of band_top
  /// (0 = stationary band). The ceiling is reflected inside
  /// [band_top/2, band_top]; a drifting band defeats any fixed filter
  /// assignment, so the offline optimum must also keep communicating —
  /// this is the regime where the DENSEPROTOCOL interval game plays out.
  double drift = 0.0;
};

class OscillatingStream final : public StreamGenerator {
 public:
  explicit OscillatingStream(OscillatingConfig cfg);

  std::size_t n() const override { return cfg_.n; }
  void init(ValueVector& out, Rng& rng) override;
  void step(TimeStep t, const AdversaryView& view, ValueVector& out, Rng& rng) override;
  std::string_view name() const override { return "oscillating"; }
  std::unique_ptr<StreamGenerator> clone() const override;

  Value band_lo() const { return band_lo_; }
  Value band_hi() const { return band_top_cur_; }

 private:
  Value draw_oscillator(Rng& rng) const;
  void set_band(Value top);

  OscillatingConfig cfg_;
  std::size_t high_ = 0;  ///< nodes [0, high_) are clearly-larger anchors
  Value band_top_cur_ = 0;
  Value band_lo_ = 0;     ///< a = ceil((1−ε)·band_top_cur_)
  Value band_floor_ = 0;  ///< drift reflection floor = band_top/2
  Value high_base_ = 0;
  Value low_top_ = 0;
};

}  // namespace topkmon
