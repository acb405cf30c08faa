#include "bench_support/experiment.hpp"

#include <gtest/gtest.h>

#include "bench_support/runner.hpp"

namespace topkmon {
namespace {

ExperimentConfig small_cfg() {
  ExperimentConfig cfg;
  cfg.stream.kind = "random_walk";
  cfg.stream.n = 10;
  cfg.stream.delta = 1 << 12;
  cfg.protocol = "combined";
  cfg.k = 2;
  cfg.epsilon = 0.15;
  cfg.steps = 80;
  cfg.trials = 3;
  cfg.seed = 42;
  cfg.strict = true;
  return cfg;
}

TEST(Experiment, RunsTrialsAndAggregates) {
  const auto res = run_experiment(small_cfg());
  EXPECT_EQ(res.messages.count(), 3u);
  EXPECT_EQ(res.ratio.count(), 3u);
  EXPECT_GT(res.messages.mean(), 0.0);
  EXPECT_GE(res.ratio.min(), 1.0) << "online can never beat the phase count";
  EXPECT_EQ(res.last_run.steps, 80u);
}

TEST(Experiment, DeterministicAcrossInvocations) {
  const auto a = run_experiment(small_cfg());
  const auto b = run_experiment(small_cfg());
  EXPECT_EQ(a.messages.samples(), b.messages.samples());
  EXPECT_EQ(a.ratio.samples(), b.ratio.samples());
}

TEST(Experiment, OptKindNoneSkipsRatio) {
  auto cfg = small_cfg();
  cfg.opt_kind = OptKind::kNone;
  const auto res = run_experiment(cfg);
  EXPECT_EQ(res.ratio.count(), 0u);
  EXPECT_EQ(res.opt_phases.count(), 0u);
  EXPECT_EQ(res.messages.count(), 3u);
}

TEST(Experiment, ExactOptPhasesAtLeastApprox) {
  auto cfg = small_cfg();
  cfg.opt_kind = OptKind::kExact;
  const auto exact = run_experiment(cfg);
  cfg.opt_kind = OptKind::kApprox;
  const auto approx = run_experiment(cfg);
  EXPECT_GE(exact.opt_phases.mean(), approx.opt_phases.mean());
}

TEST(Runner, SweepPreservesOrderAndDeterminism) {
  std::vector<SweepRow> rows;
  for (std::size_t k : {1u, 2u, 3u}) {
    auto cfg = small_cfg();
    cfg.k = k;
    rows.push_back({"k=" + std::to_string(k), cfg});
  }
  const auto par = run_sweep(rows, 3);
  ASSERT_EQ(par.size(), 3u);
  // Re-run serially; results must be identical (per-cell derived seeds).
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto serial = run_experiment(rows[i].cfg);
    EXPECT_EQ(par[i].messages.samples(), serial.messages.samples()) << i;
  }
}

TEST(Runner, EngineGroupedSweepMatchesPerCellResults) {
  // Rows sharing one stream config (a protocol comparison at fixed k/ε, the
  // grid an engine could multiplex) run as independent per-cell trials;
  // their results must stay bit-identical to serial run_experiment.
  std::vector<SweepRow> rows;
  for (const std::string protocol :
       {"combined", "topk_protocol", "half_error", "naive_central"}) {
    auto cfg = small_cfg();
    cfg.protocol = protocol;
    rows.push_back({protocol, cfg});
  }
  const auto grouped = run_sweep(rows, 2);
  ASSERT_EQ(grouped.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto serial = run_experiment(rows[i].cfg);
    EXPECT_EQ(grouped[i].messages.samples(), serial.messages.samples()) << i;
    EXPECT_EQ(grouped[i].opt_phases.samples(), serial.opt_phases.samples()) << i;
    EXPECT_EQ(grouped[i].ratio.samples(), serial.ratio.samples()) << i;
    EXPECT_EQ(grouped[i].max_sigma.samples(), serial.max_sigma.samples()) << i;
    EXPECT_EQ(grouped[i].max_rounds.samples(), serial.max_rounds.samples()) << i;
    EXPECT_EQ(grouped[i].last_run.messages, serial.last_run.messages) << i;
  }
}

TEST(Runner, AdaptiveStreamsKeepPerCellPath) {
  // lb_adversary adapts against the monitored protocol, so each cell must
  // run against its own adversary, exactly as serial run_experiment does.
  std::vector<SweepRow> rows;
  for (const std::string protocol : {"combined", "topk_protocol"}) {
    auto cfg = small_cfg();
    cfg.stream.kind = "lb_adversary";
    cfg.stream.sigma = 4;
    cfg.protocol = protocol;
    cfg.strict = false;
    cfg.opt_kind = OptKind::kNone;
    rows.push_back({protocol, cfg});
  }
  const auto swept = run_sweep(rows, 2);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto serial = run_experiment(rows[i].cfg);
    EXPECT_EQ(swept[i].messages.samples(), serial.messages.samples()) << i;
  }
}

TEST(SplitmixCombine, DistinctSalts) {
  const auto a = splitmix_combine(7, 0);
  const auto b = splitmix_combine(7, 1);
  const auto a2 = splitmix_combine(7, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, a2);
}

}  // namespace
}  // namespace topkmon
