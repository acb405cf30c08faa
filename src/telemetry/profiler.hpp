// StepProfiler — per-phase wall-time attribution for the step hot path.
//
// A step — FleetPipeline::step then Simulator::step_on, or
// MonitoringEngine::step — decomposes into a fixed set of phases (generator,
// fault injection, window merge, σ diff, σ, protocol rounds,
// violation collection, …). Scoped RAII timers (ScopedPhase, usually via
// TOPKMON_PHASE_SCOPE) attribute wall time to each phase: per-phase ns
// totals, call counts, and a log2-bucket latency histogram — enough to see
// *which* phase regressed when a bench gate trips, not just that the step got
// slower.
//
// Cost model: a scope is two clock reads plus a handful of plain adds, and
// only when a profiler is attached (a null profiler skips the clock reads
// entirely). The whole machinery compiles out under -DTOPKMON_TELEMETRY=OFF
// (TOPKMON_PHASE_SCOPE becomes a no-op statement); the StepProfiler type
// itself stays defined so export/tests keep building.
//
// Concurrency: a StepProfiler is single-writer — the engine gives each shard
// its own profiler and merges them at export time (TelemetrySink). The clock
// is injectable (ClockFn) so nesting and bucket placement are testable
// against a manual fake.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace topkmon::telemetry {

#if defined(TOPKMON_TELEMETRY_OFF)
inline constexpr bool kTelemetryEnabled = false;
#else
inline constexpr bool kTelemetryEnabled = true;
#endif

enum class Phase : std::uint8_t {
  kGenerator = 0,      ///< stream generator producing the step's raw vector
  kFaultInject,        ///< FaultInjector::transform (churn/straggler rewrite)
  kWindowMerge,        ///< WindowedValueModel::push (sliding-window maxima)
  kAdvanceTime,        ///< SimContext::advance_time (install + violation sweep)
  kProtocol,           ///< protocol dispatch: start/on_step/recovery/expiry
  kViolationCollect,   ///< SimContext::collect_violations (inside kProtocol)
  kOrderUpdate,        ///< TopKOrder::update (one diff pass + shadow copy)
  kSigma,              ///< σ(t) answer (partition scan / sort / snapshot cache)
  kStrictValidate,     ///< strict-mode output + filter validation
  kSnapshotBegin,      ///< engine: StepSnapshot::begin_step (all window views)
  kShardAdvance,       ///< engine: one shard advancing its queries
  kCount
};
inline constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);
const char* phase_name(Phase p);

/// Latency histogram buckets are log2 ns: bucket b counts durations d with
/// bit_width(d) == b (bucket 0: d == 0); 40 buckets cover ~18 minutes.
inline constexpr std::size_t kLatencyBuckets = 40;

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
std::uint64_t steady_now_ns();

class StepProfiler {
 public:
  using ClockFn = std::uint64_t (*)();

  /// `clock` = nullptr uses the steady wall clock; tests inject a manual one.
  explicit StepProfiler(ClockFn clock = nullptr)
      : clock_(clock != nullptr ? clock : &steady_now_ns) {}

  std::uint64_t now() const { return clock_(); }

  void record(Phase p, std::uint64_t ns) {
    PhaseStats& s = phases_[static_cast<std::size_t>(p)];
    s.total_ns += ns;
    ++s.calls;
    ++s.hist[bucket_of(ns)];
  }

  std::uint64_t total_ns(Phase p) const {
    return phases_[static_cast<std::size_t>(p)].total_ns;
  }
  std::uint64_t calls(Phase p) const {
    return phases_[static_cast<std::size_t>(p)].calls;
  }
  std::span<const std::uint64_t> latency_histogram(Phase p) const {
    const PhaseStats& s = phases_[static_cast<std::size_t>(p)];
    return {s.hist.data(), s.hist.size()};
  }

  /// Σ total_ns over all phases (nested phases count into each enclosing
  /// scope — shares computed from this are of *inclusive* time).
  std::uint64_t grand_total_ns() const;

  /// Adds another profiler's totals/calls/buckets into this one (export-time
  /// aggregation of per-shard profilers).
  void merge(const StepProfiler& other);

  void reset() { phases_.fill(PhaseStats{}); }

  static std::size_t bucket_of(std::uint64_t ns) {
    std::size_t b = 0;
    while (ns != 0) {
      ++b;
      ns >>= 1;
    }
    return b < kLatencyBuckets ? b : kLatencyBuckets - 1;
  }

 private:
  struct PhaseStats {
    std::uint64_t total_ns = 0;
    std::uint64_t calls = 0;
    std::array<std::uint64_t, kLatencyBuckets> hist{};
  };

  std::array<PhaseStats, kNumPhases> phases_{};
  ClockFn clock_;
};

/// RAII phase timer: measures from construction to scope exit and records
/// into the profiler. A null profiler costs two branches and no clock reads.
class ScopedPhase {
 public:
  ScopedPhase(StepProfiler* prof, Phase phase) : prof_(prof), phase_(phase) {
    if (prof_ != nullptr) start_ = prof_->now();
  }
  ~ScopedPhase() {
    if (prof_ != nullptr) prof_->record(phase_, prof_->now() - start_);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  StepProfiler* prof_;
  Phase phase_;
  std::uint64_t start_ = 0;
};

#define TOPKMON_TELEM_CONCAT2(a, b) a##b
#define TOPKMON_TELEM_CONCAT(a, b) TOPKMON_TELEM_CONCAT2(a, b)

#if defined(TOPKMON_TELEMETRY_OFF)
#define TOPKMON_PHASE_SCOPE(prof, phase) static_cast<void>(0)
#else
/// Times the rest of the enclosing scope as `phase` of `prof` (a
/// StepProfiler*; null = no-op). Compiled out under TOPKMON_TELEMETRY=OFF.
#define TOPKMON_PHASE_SCOPE(prof, phase)                                      \
  ::topkmon::telemetry::ScopedPhase TOPKMON_TELEM_CONCAT(topkmon_phase_scope_, \
                                                         __LINE__)(prof, phase)
#endif

}  // namespace topkmon::telemetry
