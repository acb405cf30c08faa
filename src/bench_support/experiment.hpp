// Experiment cells: protocol × stream × parameters × trials, with the
// offline OPT evaluated on exactly the (possibly adversary-generated)
// history the online algorithm saw, yielding empirical competitive ratios.
#pragma once

#include <string>

#include "faults/schedule.hpp"
#include "sim/simulator.hpp"
#include "streams/registry.hpp"
#include "util/summary.hpp"

namespace topkmon {

enum class OptKind : std::uint8_t {
  kNone,    ///< no offline baseline (ratio column empty)
  kApprox,  ///< ε′-error offline optimum
  kExact,   ///< exact offline optimum
};

struct ExperimentConfig {
  StreamSpec stream;
  std::string protocol = "combined";
  std::size_t k = 3;
  double epsilon = 0.1;
  TimeStep steps = 1000;
  std::size_t trials = 5;
  std::uint64_t seed = 42;
  bool strict = false;
  /// Sliding-window length W (src/model/window.hpp); kInfiniteWindow (0) =
  /// the paper's instantaneous semantics. The offline OPT of a windowed cell
  /// is evaluated on the windowed history — the stream the protocol saw.
  std::size_t window = kInfiniteWindow;
  OptKind opt_kind = OptKind::kApprox;
  /// ε′ for the offline optimum; negative = use `epsilon`.
  double opt_epsilon = -1.0;
  /// Fault scenario (src/faults); all-zero = reliable static fleet. Each
  /// trial generates its own schedule (horizon = steps, seed derived from
  /// faults.seed and the trial index), so trials degrade independently.
  FaultConfig faults;
};

struct ExperimentResult {
  SampleSet messages;        ///< total online messages per trial
  SampleSet msgs_per_step;
  SampleSet opt_phases;      ///< offline phases per trial
  SampleSet ratio;           ///< messages / max(1, opt phases)
  SampleSet max_sigma;
  SampleSet max_rounds;      ///< max communication rounds in one step
  RunResult last_run;        ///< full stats of the final trial
};

/// One trial's raw outcome — the unit of the sweep runner's (cell × trial)
/// task grid, one parallel_for index per task. Trials of a cell are
/// independent (each derives its own seeds), so they can run on any worker
/// in any order; folding them back in trial order (accumulate_trial)
/// reproduces the serial run bit-for-bit.
struct TrialOutcome {
  RunResult run;
  std::uint64_t opt_phases = 0;  ///< meaningful iff has_opt
  bool has_opt = false;
};

/// Runs trial `trial` of one cell. `profiler` (optional) arms per-phase step
/// profiling on the trial's simulator — a single-writer hook, so concurrent
/// trials must each pass their own profiler (merge afterwards).
TrialOutcome run_experiment_trial(const ExperimentConfig& cfg, std::size_t trial,
                                  telemetry::StepProfiler* profiler = nullptr);

/// Folds one trial into the cell's result. Must be called in trial order —
/// the single aggregation point shared by run_experiment and run_sweep, so
/// both fold with the identical floating-point operation order.
void accumulate_trial(ExperimentResult& res, const ExperimentConfig& cfg,
                      const TrialOutcome& trial);

/// Runs all trials of one cell (serially; parallelism lives in runner.hpp).
/// Per-trial seeds derive from cfg.seed via splitmix_combine (util/rng.hpp).
ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace topkmon
