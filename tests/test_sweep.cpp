// Sweep-runner determinism under the pool's fork-join (cell × trial) loop.
//
// run_sweep splits every cell's trials into independent tasks, runs them as
// one parallel_for index each (workers claim indices from a shared counter),
// and folds the per-trial outcomes back in (cell, trial) order on the caller
// thread. The contract under test: results — message counters, σ, rounds,
// opt phases, competitive ratios, the full RunResult of the last trial — are
// bit-identical whatever the worker count or claim order, and bit-identical
// to the serial run_experiment fold for every cell.
#include "bench_support/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bench_support/experiment.hpp"

namespace topkmon {
namespace {

/// A grid of unequal cells: three protocols on one stream config, a cell on
/// a second stream, and an adaptive-adversary cell with fewer steps and
/// trials, so tasks of different lengths interleave on the pool.
std::vector<SweepRow> mixed_rows() {
  std::vector<SweepRow> rows;
  ExperimentConfig base;
  base.stream.kind = "random_walk";
  base.stream.n = 24;
  base.k = 4;
  base.epsilon = 0.15;
  base.steps = 120;
  base.trials = 3;
  base.seed = 99;
  for (const char* protocol : {"combined", "exact_topk", "half_error"}) {
    SweepRow row;
    row.label = protocol;
    row.cfg = base;
    row.cfg.protocol = protocol;
    rows.push_back(row);
  }
  {
    SweepRow solo;
    solo.label = "solo";
    solo.cfg = base;
    solo.cfg.stream.kind = "zipf_bursty";
    rows.push_back(solo);
  }
  {
    SweepRow adaptive;
    adaptive.label = "adaptive";
    adaptive.cfg = base;
    adaptive.cfg.stream.kind = "lb_adversary";
    adaptive.cfg.steps = 60;
    adaptive.cfg.trials = 2;
    rows.push_back(adaptive);
  }
  return rows;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.messages.samples(), b.messages.samples()) << label;
  EXPECT_EQ(a.msgs_per_step.samples(), b.msgs_per_step.samples()) << label;
  EXPECT_EQ(a.max_sigma.samples(), b.max_sigma.samples()) << label;
  EXPECT_EQ(a.max_rounds.samples(), b.max_rounds.samples()) << label;
  EXPECT_EQ(a.opt_phases.samples(), b.opt_phases.samples()) << label;
  EXPECT_EQ(a.ratio.samples(), b.ratio.samples()) << label;
  EXPECT_EQ(a.last_run.messages, b.last_run.messages) << label;
  EXPECT_EQ(a.last_run.by_tag, b.last_run.by_tag) << label;
  EXPECT_EQ(a.last_run.max_sigma, b.last_run.max_sigma) << label;
  EXPECT_EQ(a.last_run.stale_reads, b.last_run.stale_reads) << label;
}

TEST(SweepScheduler, ResultsBitIdenticalAcross1_2_8Threads) {
  const auto rows = mixed_rows();
  const auto r1 = run_sweep(rows, 1);
  const auto r2 = run_sweep(rows, 2);
  const auto r8 = run_sweep(rows, 8);
  ASSERT_EQ(r1.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expect_identical(r1[i], r2[i], rows[i].label + " (1 vs 2 threads)");
    expect_identical(r1[i], r8[i], rows[i].label + " (1 vs 8 threads)");
  }
}

TEST(SweepScheduler, SoloCellsMatchSerialRunExperiment) {
  const auto rows = mixed_rows();
  const auto swept = run_sweep(rows, 8);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ExperimentResult serial = run_experiment(rows[i].cfg);
    expect_identical(swept[i], serial, rows[i].label + " (sweep vs serial)");
  }
}

TEST(SweepScheduler, TrialFoldMatchesPerTrialOutcomes) {
  // accumulate_trial over run_experiment_trial in trial order must equal
  // run_experiment — the invariant the (cell × trial) split rests on.
  ExperimentConfig cfg;
  cfg.stream.kind = "sine_noise";
  cfg.stream.n = 16;
  cfg.k = 3;
  cfg.epsilon = 0.2;
  cfg.steps = 80;
  cfg.trials = 4;
  cfg.seed = 7;
  ExperimentResult folded;
  for (std::size_t t = 0; t < cfg.trials; ++t) {
    accumulate_trial(folded, cfg, run_experiment_trial(cfg, t));
  }
  expect_identical(folded, run_experiment(cfg), "fold vs run_experiment");
}

}  // namespace
}  // namespace topkmon
