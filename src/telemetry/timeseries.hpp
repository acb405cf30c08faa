// TimeseriesRecorder — per-step samples of selected metrics over a run.
//
// Aggregate counters say *how much* a protocol communicated; the recorder
// says *when*: message bursts, recovery rounds, σ swings, and window
// expiry waves become visible as a per-step series instead of vanishing into
// end-of-run totals.
//
// Channels are registry metrics (counters or gauges) chosen at setup;
// sample(t) reads their current values into a preallocated ring row. The
// ring has fixed capacity: when it fills, it downsamples in place by a
// power of two — every other retained row is dropped and the sampling
// stride doubles, so a T-step run always fits in `capacity` rows with
// uniform spacing and bounded memory. Counters are recorded cumulatively,
// which survives downsampling losslessly (a burst stays visible as a slope
// between surviving rows); gauges are instantaneous samples.
//
// Invariants (tested in tests/test_telemetry.cpp): row count ≤ capacity,
// stride is a power of two, retained steps are exactly the multiples of the
// stride in [0, T], and surviving rows carry the values observed when they
// were first recorded. sample() after the first call allocates nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace topkmon::telemetry {

class TimeseriesRecorder {
 public:
  /// `capacity` rows (rounded up to the next even number ≥ 2); memory is
  /// capacity × (1 + channels) words, allocated on the first sample.
  explicit TimeseriesRecorder(std::size_t capacity = 1024);

  /// Adds a channel (setup phase; before the first sample). The metric must
  /// be a counter or gauge.
  void add_channel(std::string name, MetricId id, const MetricsRegistry& registry);

  std::size_t channel_count() const { return ids_.size(); }
  const std::vector<std::string>& channel_names() const { return names_; }
  std::size_t capacity() const { return capacity_; }

  /// Records the current values of every channel for step `step`. Steps must
  /// be consecutive from 0 (the step loop calls this once per step); steps
  /// off the current stride are skipped.
  void sample(const MetricsRegistry& registry, std::uint64_t step);

  std::size_t size() const { return count_; }
  std::uint64_t stride() const { return stride_; }
  std::uint64_t step_at(std::size_t row) const { return data_[row * row_width()]; }
  std::uint64_t value_at(std::size_t row, std::size_t channel) const {
    return data_[row * row_width() + 1 + channel];
  }

  /// Drops all rows and re-arms stride 1; channels are kept.
  void reset() {
    count_ = 0;
    stride_ = 1;
  }

 private:
  std::size_t row_width() const { return 1 + ids_.size(); }

  std::size_t capacity_;
  std::vector<std::string> names_;
  std::vector<MetricId> ids_;
  std::vector<std::uint64_t> data_;  ///< capacity × (1 + channels), first sample
  std::size_t count_ = 0;
  std::uint64_t stride_ = 1;
};

}  // namespace topkmon::telemetry
