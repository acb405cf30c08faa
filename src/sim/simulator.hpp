// Simulator — drives pipeline → protocol → validation per time step.
//
// The node side of a step is a FleetPipeline (model/fleet_pipeline.hpp); the
// Simulator is the server side, entered through step_on(monitored, facts).
// step() and step_with() run the Simulator's own pipeline first; the engine
// and the networked coordinator run theirs and call step_on directly.
//
// Strict mode re-checks after every step that the protocol upheld its
// contract (output correctness via the Oracle, filter validity via
// Observation 2.2, quiescence). History recording retains the full value
// matrix so the offline OPT (src/offline) can be evaluated on exactly the
// stream the online algorithm saw — required because adaptive adversaries
// make the stream depend on the algorithm's randomness.
//
// Hot path: σ(t) comes from the fleet's incremental value order
// (TopKOrder, or the driver) instead of a per-step sort, so a steady-state
// step performs no heap allocation (see util/alloc_counter.hpp).
// Strict-mode scratch (the filter snapshot the validator consumes) is
// captured lazily into a reusable buffer only when validation actually runs.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "faults/schedule.hpp"
#include "model/band_ladder.hpp"
#include "model/fleet_pipeline.hpp"
#include "model/fleet_state.hpp"
#include "model/window.hpp"
#include "sim/context.hpp"
#include "sim/protocol.hpp"
#include "sim/stats_snapshot.hpp"
#include "sim/stream.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "util/assert.hpp"

namespace topkmon::telemetry {
class TelemetrySink;
}

namespace topkmon {

struct SimConfig {
  std::size_t k = 3;
  double epsilon = 0.1;
  std::uint64_t seed = 1;
  bool strict = false;          ///< validate output/filters after every step
  bool record_history = false;  ///< keep the n×T value matrix for offline OPT

  /// Threshold bound T for QueryKind::kThreshold protocols; ignored by
  /// every other protocol (and by the validator unless the protocol
  /// advertises the kind).
  Value threshold = 0;

  /// Fault model (src/faults): null = perfectly reliable static fleet. With
  /// a schedule the simulator applies lossy-link accounting and fires the
  /// protocol's recovery hook on membership changes; the churn/straggler
  /// rewrite itself happens in a FleetPipeline. An all-zero schedule
  /// reproduces the fault-free run bit-identically.
  FleetSchedulePtr faults;

  /// Sliding-window mode (src/model/window.hpp): with window ≥ 1 the
  /// protocol monitors per-node window maxima over the last `window` steps
  /// instead of instantaneous values; kInfiniteWindow (0) keeps the paper's
  /// semantics bit-identically. The transform applies *after* fault
  /// injection — nodes window what they actually observed.
  std::size_t window = kInfiniteWindow;
};

/// What a driver's pipeline knows about step t besides the monitored vector.
struct StepFacts {
  /// Run membership recovery even if the schedule scripts none (a networked
  /// link came back); ignored at t = 0, where start() runs.
  bool recovery = false;
  std::uint64_t stale_reads = 0;
  std::uint64_t window_expirations = 0;  ///< > 0 runs on_window_expiry
  /// σ(t) for the Simulator's (k, ε), if the driver already knows it.
  std::optional<std::size_t> sigma;
};

/// The StatsSnapshot core (comm totals/kinds/tags/rounds, fault metrics —
/// all zero on the fault-free path — the fleet-level window_expirations
/// metric, and the networked runtime's per-link transport counters) plus the
/// per-run extrema the standalone simulator adds on top.
struct RunResult : StatsSnapshot {
  std::uint64_t steps = 0;
  std::uint64_t max_rounds_per_step = 0;
  std::size_t max_sigma = 0;
  double messages_per_step = 0.0;
};

class Simulator {
 public:
  /// Standalone: its pipeline generates from `gen`, with cfg's faults and
  /// window.
  Simulator(SimConfig cfg, std::unique_ptr<StreamGenerator> gen,
            std::unique_ptr<MonitoringProtocol> protocol);

  /// No generator: driven by step_with() — whose pipeline is built on first
  /// use — or by step_on() alone, which builds no node-side state.
  Simulator(SimConfig cfg, std::size_t n,
            std::unique_ptr<MonitoringProtocol> protocol);

  /// Advances one time step (t = 0 on the first call) on the generator.
  void step();

  /// Advances one time step on an externally supplied true vector (size n),
  /// still through cfg's faults and window; bypasses the generator.
  void step_with(const ValueVector& values);

  /// Advances one time step on a monitored vector (size n) that a driver's
  /// pipeline already fault-injected and windowed.
  void step_on(const ValueVector& monitored, const StepFacts& facts);

  /// Runs `steps` time steps and returns aggregate statistics.
  RunResult run(TimeStep steps);

  /// Aggregate statistics for everything executed so far.
  RunResult result() const;

  SimContext& context() { return ctx_; }
  const SimContext& context() const { return ctx_; }
  MonitoringProtocol& protocol() { return *protocol_; }
  const MonitoringProtocol& protocol() const { return *protocol_; }

  /// Recorded observation history (empty unless cfg.record_history).
  const std::vector<ValueVector>& history() const { return history_; }

  std::size_t max_sigma() const { return max_sigma_; }
  const SimConfig& config() const { return cfg_; }

  /// The σ path's incremental order, built on the first step without a
  /// precomputed σ.
  const FleetState& fleet() const { return fleet_; }

  // ---- telemetry (src/telemetry) ------------------------------------------

  /// Attaches a telemetry sink: registers this simulator's metric namespace
  /// (comm.*, faults.*, window.*, order.*, sim.*) in the sink's registry,
  /// adds the default timeseries channels (unless the sink already has
  /// channels), arms the per-phase step profiler, and mirrors current values
  /// into the registry after every step. Setup only — must precede the first
  /// step; the sink must outlive the simulator. Publishing reads existing
  /// counters (no RNG, no extra messages) and allocates nothing in steady
  /// state, so results stay bit-identical with telemetry attached.
  void attach_telemetry(telemetry::TelemetrySink* sink);

  /// Arms only the per-phase step profiler — the lighter hook benches and
  /// engine shards use. attach_telemetry() implies this with the sink's own
  /// profiler. Null detaches.
  void set_profiler(telemetry::StepProfiler* prof) {
    profiler_ = prof;
    ctx_.set_profiler(prof);
  }
  telemetry::StepProfiler* profiler() const { return profiler_; }

 private:
  void validate_strict(const ValueVector& values);
  void publish_telemetry(std::size_t sigma);

  /// Advances the own pipeline's output through step_on.
  void step_on_pipeline(const ValueVector& monitored);

  SimConfig cfg_;
  std::unique_ptr<MonitoringProtocol> protocol_;
  SimContext ctx_;
  std::unique_ptr<FleetPipeline> pipeline_;  ///< step()/step_with() only
  FleetState fleet_;  ///< σ-path order (lazy)
  std::vector<ValueVector> history_;
  std::uint64_t window_expirations_ = 0;
  std::vector<Filter> strict_filters_;  ///< validator snapshot; sized on first use
  BandLadder strict_ladder_;  ///< count-distinct oracle ladder (built once; ε fixed)
  bool strict_ladder_ready_ = false;
  std::size_t max_sigma_ = 0;
  TimeStep next_t_ = 0;

  /// Registry ids of the simulator's metric namespace (attach_telemetry):
  /// the shared StatsSnapshot block plus the sim-specific gauges.
  struct TelemetryIds {
    StatsSnapshotIds stats;
    telemetry::MetricId order_repairs, order_rebuilds;
    telemetry::MetricId step, sigma, violating;
    telemetry::MetricId messages_per_step;  ///< histogram
  };
  telemetry::TelemetrySink* telemetry_ = nullptr;
  telemetry::StepProfiler* profiler_ = nullptr;
  TelemetryIds ids_{};
};

}  // namespace topkmon
