#include "bench_support/runner.hpp"

#include <map>
#include <mutex>
#include <sstream>
#include <tuple>
#include <utility>

#include "engine/engine.hpp"
#include "offline/windowed_opt.hpp"
#include "util/thread_pool.hpp"

namespace topkmon {

namespace {

/// Streams whose next values depend on the monitored protocol's state; cells
/// on these cannot share one fleet without changing what each protocol sees.
bool stream_is_adaptive(const std::string& kind) {
  return kind == "lb_adversary" || kind == "phase_torture";
}

/// The stream spec run_experiment actually instantiates (k/ε overrides).
StreamSpec effective_spec(const ExperimentConfig& cfg) {
  StreamSpec spec = cfg.stream;
  spec.k = cfg.k;
  if (cfg.epsilon > 0.0) {
    spec.epsilon = cfg.epsilon;
  }
  return spec;
}

/// Cells agreeing on this key see the identical stream — and the identical
/// degraded fleet — per trial and can be served as concurrent queries of one
/// engine.
std::string group_key(const ExperimentConfig& cfg) {
  const StreamSpec s = effective_spec(cfg);
  std::ostringstream oss;
  oss.precision(17);
  oss << s.kind << '|' << s.n << '|' << s.k << '|' << s.epsilon << '|' << s.delta
      << '|' << s.sigma << '|' << s.walk_step << '|' << s.churn << '|' << s.drift
      << '|' << s.trace_path << '|' << cfg.k << '|' << cfg.epsilon << '|'
      << cfg.steps << '|' << cfg.trials << '|' << cfg.seed << '|' << cfg.strict
      << '|' << cfg.faults.churn_rate << '|' << cfg.faults.straggler_fraction
      << '|' << cfg.faults.max_delay << '|' << cfg.faults.loss << '|'
      << cfg.faults.seed;
  // Cells differing only in W still share a group: the engine serves
  // mixed-window queries from per-window views of one snapshot, so the key
  // deliberately omits cfg.window.
  return oss.str();
}

/// One trial of a cell group: one engine, Q = group size. Each query uses
/// the exact seed a standalone Simulator would, and probe sharing stays off,
/// so per-cell RunResults are bit-identical to the serial path; the shared
/// work is the generator (once per step) and the OPT (once per distinct
/// (kind, ε', W) instead of once per cell). Returns one TrialOutcome per
/// cell, in group order.
std::vector<TrialOutcome> run_group_trial(
    const std::vector<const ExperimentConfig*>& cells, std::size_t trial,
    telemetry::StepProfiler* profiler) {
  const ExperimentConfig& base = *cells.front();
  const std::uint64_t sim_seed = splitmix_combine(base.seed, trial);

  EngineConfig ecfg;
  ecfg.threads = 1;  // cell/trial parallelism lives in the sweep pool
  ecfg.seed = sim_seed;
  ecfg.share_probes = false;
  ecfg.faults = trial_fleet_schedule(base, trial, effective_spec(base).n);
  for (const auto* c : cells) {
    ecfg.record_history |= c->opt_kind != OptKind::kNone;
  }

  MonitoringEngine engine(ecfg, make_stream(effective_spec(base)));
  // Profiled sweeps give the trial its own sink (profilers are
  // single-writer); the caller folds merged_profiler() into the sweep sink.
  telemetry::TelemetrySink trial_sink;
  if (profiler != nullptr) {
    engine.attach_telemetry(&trial_sink);
  }
  for (const auto* c : cells) {
    QuerySpec q;
    q.protocol = c->protocol;
    q.k = c->k;
    q.epsilon = c->epsilon;
    q.window = c->window;
    q.strict = c->strict;
    q.seed = sim_seed;
    engine.add_query(std::move(q));
  }
  // Stale reads are a fleet-level phenomenon: the engine's one injector books
  // them once, while a standalone Simulator (one fleet per cell) books them
  // into its own RunResult. Copy the fleet total into each cell so grouped
  // results stay bit-identical to the solo path.
  const EngineStats stats = engine.run(base.steps);
  if (profiler != nullptr) {
    profiler->merge(trial_sink.merged_profiler());
  }

  std::vector<TrialOutcome> out(cells.size());
  // The engine history is pre-window; the windowed OPT of a cell re-windows
  // it with the cell's W (exactly what that query's protocol saw), cached
  // per distinct (kind, ε′, W).
  std::map<std::tuple<int, double, std::size_t>, std::uint64_t> opt_cache;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto* c = cells[i];
    out[i].run = stats.queries[i].run;
    out[i].run.stale_reads = stats.stale_reads;
    if (c->opt_kind == OptKind::kNone) continue;
    const double eps_opt = c->opt_epsilon < 0.0 ? c->epsilon : c->opt_epsilon;
    const auto key = std::make_tuple(
        static_cast<int>(c->opt_kind),
        c->opt_kind == OptKind::kExact ? 0.0 : eps_opt, c->window);
    auto it = opt_cache.find(key);
    if (it == opt_cache.end()) {
      const OptReport opt =
          c->opt_kind == OptKind::kExact
              ? WindowedOpt::exact(engine.history(), c->k, c->window)
              : WindowedOpt::approx(engine.history(), c->k, eps_opt, c->window);
      it = opt_cache.emplace(key, opt.phases).first;
    }
    out[i].opt_phases = it->second;
    out[i].has_opt = true;
  }
  return out;
}

}  // namespace

std::vector<ExperimentResult> run_sweep(const std::vector<SweepRow>& rows,
                                        std::size_t threads,
                                        telemetry::TelemetrySink* sink) {
  // Partition rows: groupable cells go through the engine, the rest (unique
  // stream configs, adaptive adversaries) stay one-Simulator-per-cell.
  std::map<std::string, std::vector<std::size_t>> grouped;
  std::vector<std::size_t> solo;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (stream_is_adaptive(rows[i].cfg.stream.kind)) {
      solo.push_back(i);
    } else {
      grouped[group_key(rows[i].cfg)].push_back(i);
    }
  }
  std::vector<std::vector<std::size_t>> groups;
  for (auto& [key, members] : grouped) {
    (void)key;
    if (members.size() < 2) {
      solo.push_back(members.front());
    } else {
      groups.push_back(std::move(members));
    }
  }

  // (cell × trial) task grid: every trial of every cell — solo or grouped —
  // is one independent index of the pool's parallel_for. Each task derives
  // its own RNG streams and writes into its own preassigned (row, trial)
  // slots — a grouped task fills one slot per cell of its group — and each
  // row folds its slots through accumulate_trial on the caller thread in
  // trial order, so results are bit-identical to run_experiment whatever
  // the worker count or claim order.
  struct Task {
    std::size_t index;  ///< solo: row index; grouped: group index
    std::size_t trial;
    bool grouped;
  };
  std::vector<Task> tasks;
  std::vector<std::vector<TrialOutcome>> outcomes(rows.size());  ///< [row][trial]
  for (std::size_t row = 0; row < rows.size(); ++row) {
    outcomes[row].resize(rows[row].cfg.trials);
  }
  for (const std::size_t row : solo) {
    for (std::size_t t = 0; t < rows[row].cfg.trials; ++t) {
      tasks.push_back({row, t, false});
    }
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t t = 0; t < rows[groups[g].front()].cfg.trials; ++t) {
      tasks.push_back({g, t, true});
    }
  }

  ThreadPool pool(threads);
  std::mutex sink_mutex;
  parallel_for(pool, tasks.size(), [&](std::size_t i) {
    const Task task = tasks[i];
    // Worker-local profiler (single-writer), folded into the shared sink
    // under a lock after the trial; null stays a no-op end to end.
    telemetry::StepProfiler local;
    telemetry::StepProfiler* prof = sink != nullptr ? &local : nullptr;
    if (!task.grouped) {
      outcomes[task.index][task.trial] =
          run_experiment_trial(rows[task.index].cfg, task.trial, prof);
    } else {
      const std::vector<std::size_t>& group = groups[task.index];
      std::vector<const ExperimentConfig*> cells;
      cells.reserve(group.size());
      for (const std::size_t row : group) {
        cells.push_back(&rows[row].cfg);
      }
      std::vector<TrialOutcome> per_cell = run_group_trial(cells, task.trial, prof);
      for (std::size_t pos = 0; pos < group.size(); ++pos) {
        outcomes[group[pos]][task.trial] = std::move(per_cell[pos]);
      }
    }
    if (sink != nullptr) {
      const std::lock_guard<std::mutex> lock(sink_mutex);
      sink->profiler().merge(local);
    }
  });

  std::vector<ExperimentResult> results(rows.size());
  for (std::size_t row = 0; row < rows.size(); ++row) {
    for (const TrialOutcome& t : outcomes[row]) {
      accumulate_trial(results[row], rows[row].cfg, t);
    }
  }
  return results;
}

}  // namespace topkmon
