#include "bench_support/runner.hpp"

#include <mutex>

#include "util/thread_pool.hpp"

namespace topkmon {

std::vector<ExperimentResult> run_sweep(const std::vector<SweepRow>& rows,
                                        std::size_t threads,
                                        telemetry::TelemetrySink* sink) {
  // (row × trial) task grid: every trial of every row is one independent
  // index of the pool's parallel_for. Each task derives its own RNG streams
  // and writes into its own preassigned (row, trial) slot, and each row folds
  // its slots through accumulate_trial on the caller thread in trial order,
  // so results are bit-identical to run_experiment whatever the worker count
  // or claim order.
  struct Task {
    std::size_t row;
    std::size_t trial;
  };
  std::vector<Task> tasks;
  std::vector<std::vector<TrialOutcome>> outcomes(rows.size());  ///< [row][trial]
  for (std::size_t row = 0; row < rows.size(); ++row) {
    outcomes[row].resize(rows[row].cfg.trials);
    for (std::size_t t = 0; t < rows[row].cfg.trials; ++t) {
      tasks.push_back({row, t});
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
    outcomes[task.row][task.trial] =
        run_experiment_trial(rows[task.row].cfg, task.trial, prof);
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
