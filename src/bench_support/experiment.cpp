#include "bench_support/experiment.hpp"

#include "offline/opt.hpp"
#include "protocols/registry.hpp"
#include "util/assert.hpp"

namespace topkmon {

namespace {

/// The fault schedule of one trial of `cfg` over an n-node fleet (horizon =
/// cfg.steps, seed derived from cfg.faults.seed and the trial index); null
/// when the scenario is all-zero.
FleetSchedulePtr trial_fleet_schedule(const ExperimentConfig& cfg,
                                      std::size_t trial, std::size_t n) {
  FaultConfig fault_cfg = cfg.faults;
  fault_cfg.horizon = cfg.steps;
  fault_cfg.seed = splitmix_combine(cfg.faults.seed, trial);
  return make_fleet_schedule(fault_cfg, n);
}

}  // namespace

TrialOutcome run_experiment_trial(const ExperimentConfig& cfg, std::size_t trial,
                                  telemetry::StepProfiler* profiler) {
  SimConfig sim_cfg;
  sim_cfg.k = cfg.k;
  sim_cfg.epsilon = cfg.epsilon;
  sim_cfg.seed = splitmix_combine(cfg.seed, trial);
  sim_cfg.strict = cfg.strict;
  sim_cfg.window = cfg.window;
  sim_cfg.record_history = cfg.opt_kind != OptKind::kNone;

  StreamSpec spec = cfg.stream;
  spec.k = cfg.k;
  // Stream generators need a *band* epsilon even when the protocol under
  // test is exact (epsilon = 0); keep the spec's own value in that case.
  if (cfg.epsilon > 0.0) {
    spec.epsilon = cfg.epsilon;
  }

  sim_cfg.faults = trial_fleet_schedule(cfg, trial, spec.n);

  Simulator sim(sim_cfg, make_stream(spec), make_protocol(cfg.protocol));
  sim.set_profiler(profiler);

  TrialOutcome out;
  out.run = sim.run(cfg.steps);
  if (cfg.opt_kind != OptKind::kNone) {
    const double eps_opt = cfg.opt_epsilon < 0.0 ? cfg.epsilon : cfg.opt_epsilon;
    const OptReport opt = cfg.opt_kind == OptKind::kExact
                              ? OfflineOpt::exact(sim.history(), cfg.k)
                              : OfflineOpt::approx(sim.history(), cfg.k, eps_opt);
    out.opt_phases = opt.phases;
    out.has_opt = true;
  }
  return out;
}

void accumulate_trial(ExperimentResult& res, const ExperimentConfig& cfg,
                      const TrialOutcome& trial) {
  const RunResult& run = trial.run;
  res.messages.add(static_cast<double>(run.messages));
  res.msgs_per_step.add(run.messages_per_step);
  res.max_sigma.add(static_cast<double>(run.max_sigma));
  res.max_rounds.add(static_cast<double>(run.max_rounds_per_step));
  if (cfg.opt_kind != OptKind::kNone) {
    TOPKMON_ASSERT(trial.has_opt);
    res.opt_phases.add(static_cast<double>(trial.opt_phases));
    res.ratio.add(static_cast<double>(run.messages) /
                  static_cast<double>(std::max<std::uint64_t>(1, trial.opt_phases)));
  }
  res.last_run = run;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  ExperimentResult res;
  for (std::size_t trial = 0; trial < cfg.trials; ++trial) {
    accumulate_trial(res, cfg, run_experiment_trial(cfg, trial));
  }
  return res;
}

}  // namespace topkmon
