// MetricsRegistry — the unified metric namespace of the telemetry layer.
//
// Every quantity the repo used to scatter across ad-hoc structs — the
// CommStats kind/tag matrix, EngineStats aggregates, fault metrics
// (stale_reads / messages_lost / recovery_rounds), window_expirations, the
// simulator's σ gauge — is registered here once under a dotted name
// ("comm.messages", "faults.stale_reads", "sim.sigma") and
// becomes queryable through one surface: by id on the hot path, by name at
// export time (telemetry/telemetry.hpp renders JSON and Prometheus text).
//
// Registration is a setup-phase operation (it may allocate and is NOT
// thread-safe); it returns a dense MetricId. Hot-path updates go through the
// id and are wait-free: a counter update is one relaxed atomic add, a gauge
// update one relaxed store, a histogram observation one relaxed add into a
// log2 bucket plus count/sum. All slots are preallocated at construction —
// no update ever allocates, so the zero-steady-state-allocation invariant of
// the step loop (util/alloc_counter.hpp) survives with telemetry attached.
//
// Concurrency contract: register first, then share freely. Updates and reads
// from any number of threads are safe (relaxed atomics — counters are
// monotone and independently meaningful; cross-metric snapshots are only
// taken after the run quiesces).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace topkmon::telemetry {

using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = ~MetricId{0};

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };
const char* to_string(MetricKind kind);

/// Histogram buckets are log2: bucket b counts observations v with
/// bit_width(v) == b, i.e. v in [2^(b-1), 2^b); bucket 0 counts v == 0.
/// Values are ≤ 2^48 (model/types.hpp), so 50 buckets cover the range with
/// room for ns-scale latencies.
inline constexpr std::size_t kHistogramBuckets = 50;

class MetricsRegistry {
 public:
  /// Capacities fix the slot pools up front; registration past them asserts.
  explicit MetricsRegistry(std::size_t scalar_capacity = 192,
                           std::size_t histogram_capacity = 16);

  // ---- setup phase (may allocate; single-threaded) -------------------------

  /// Registers (or looks up, if `name` is already registered with the same
  /// kind) a metric and returns its id. Re-registering a name with a
  /// different kind asserts.
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  MetricId histogram(std::string_view name);

  /// Id of a registered metric; kInvalidMetric when absent.
  MetricId find(std::string_view name) const;

  // ---- hot path (wait-free, allocation-free) -------------------------------

  void add(MetricId id, std::uint64_t delta = 1) {
    scalars_[slots_[id]].fetch_add(delta, std::memory_order_relaxed);
  }
  void set(MetricId id, std::uint64_t value) {
    scalars_[slots_[id]].store(value, std::memory_order_relaxed);
  }
  void observe(MetricId id, std::uint64_t value) {
    std::atomic<std::uint64_t>* h = &hists_[slots_[id] * kHistogramRowWidth];
    h[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    h[kHistogramBuckets].fetch_add(1, std::memory_order_relaxed);       // count
    h[kHistogramBuckets + 1].fetch_add(value, std::memory_order_relaxed);  // sum
  }

  // ---- queries -------------------------------------------------------------

  std::size_t size() const { return names_.size(); }
  const std::string& name(MetricId id) const { return names_[id]; }
  MetricKind kind(MetricId id) const { return kinds_[id]; }

  /// Current value of a counter or gauge.
  std::uint64_t value(MetricId id) const {
    return scalars_[slots_[id]].load(std::memory_order_relaxed);
  }
  std::uint64_t hist_count(MetricId id) const {
    return hist_cell(id, kHistogramBuckets);
  }
  std::uint64_t hist_sum(MetricId id) const {
    return hist_cell(id, kHistogramBuckets + 1);
  }
  std::uint64_t hist_bucket(MetricId id, std::size_t b) const {
    return hist_cell(id, b);
  }

  /// Zeroes every slot; registrations are kept (sink reuse across runs).
  void reset_values();

  /// The log2 bucket an observation lands in.
  static std::size_t bucket_of(std::uint64_t v) {
    std::size_t b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
  }

 private:
  static constexpr std::size_t kHistogramRowWidth = kHistogramBuckets + 2;

  MetricId register_metric(std::string_view name, MetricKind kind);

  std::uint64_t hist_cell(MetricId id, std::size_t cell) const {
    return hists_[slots_[id] * kHistogramRowWidth + cell].load(
        std::memory_order_relaxed);
  }

  std::vector<std::string> names_;        ///< by id
  std::vector<MetricKind> kinds_;         ///< by id
  std::vector<std::uint32_t> slots_;      ///< by id: index into its kind's pool
  std::unique_ptr<std::atomic<std::uint64_t>[]> scalars_;  ///< counters + gauges
  std::unique_ptr<std::atomic<std::uint64_t>[]> hists_;    ///< histogram rows
  std::size_t scalar_capacity_;
  std::size_t histogram_capacity_;
  std::size_t scalar_count_ = 0;
  std::size_t histogram_count_ = 0;
};

}  // namespace topkmon::telemetry
