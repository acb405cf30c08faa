#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "faults/registry.hpp"
#include "protocols/registry.hpp"
#include "streams/registry.hpp"

namespace topkmon {
namespace {

Simulator make_sim(const std::string& protocol, const std::string& kind,
                   std::size_t n, std::size_t k, double eps, std::uint64_t seed,
                   bool strict = true, bool history = false) {
  StreamSpec spec;
  spec.kind = kind;
  spec.n = n;
  spec.k = k;
  spec.epsilon = eps;
  spec.sigma = std::max<std::size_t>(2, n / 2);
  SimConfig cfg;
  cfg.k = k;
  cfg.epsilon = eps;
  cfg.seed = seed;
  cfg.strict = strict;
  cfg.record_history = history;
  return Simulator(cfg, make_stream(spec), make_protocol(protocol));
}

TEST(Simulator, RunsAndCounts) {
  auto sim = make_sim("naive_central", "random_walk", 8, 2, 0.1, 1);
  const auto r = sim.run(20);
  EXPECT_EQ(r.steps, 20u);
  // naive_central: n reports + 1 broadcast per step.
  EXPECT_EQ(r.messages, 20u * 9u);
  EXPECT_EQ(r.node_to_server, 20u * 8u);
  EXPECT_EQ(r.broadcasts, 20u);
}

TEST(Simulator, HistoryRecordedWhenRequested) {
  auto sim = make_sim("naive_central", "uniform", 6, 2, 0.1, 2, true, true);
  sim.run(15);
  EXPECT_EQ(sim.history().size(), 15u);
  EXPECT_EQ(sim.history().front().size(), 6u);
}

TEST(Simulator, HistoryEmptyByDefault) {
  auto sim = make_sim("naive_central", "uniform", 6, 2, 0.1, 3);
  sim.run(5);
  EXPECT_TRUE(sim.history().empty());
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto a = make_sim("combined", "random_walk", 12, 3, 0.15, 99);
  auto b = make_sim("combined", "random_walk", 12, 3, 0.15, 99);
  const auto ra = a.run(200);
  const auto rb = b.run(200);
  EXPECT_EQ(ra.messages, rb.messages);
  EXPECT_EQ(ra.max_sigma, rb.max_sigma);
  EXPECT_EQ(a.protocol().output(), b.protocol().output());
}

TEST(Simulator, TracksMaxSigma) {
  auto sim = make_sim("naive_central", "oscillating", 16, 4, 0.1, 7);
  sim.run(30);
  EXPECT_GE(sim.max_sigma(), 8u);  // sigma = n/2 in make_sim
}

TEST(Simulator, PolylogRoundsPerStep) {
  auto sim = make_sim("combined", "random_walk", 64, 4, 0.1, 11);
  const auto r = sim.run(100);
  // Each EXISTENCE run is <= log n + 1 rounds; a step may chain several
  // (probes + drains), but the budget must stay polylogarithmic — far
  // below, say, n.
  EXPECT_LE(r.max_rounds_per_step, 64u * 7u);
}

TEST(Simulator, MessagesPerStepAggregates) {
  auto sim = make_sim("naive_central", "uniform", 4, 1, 0.1, 13);
  const auto r = sim.run(10);
  EXPECT_DOUBLE_EQ(r.messages_per_step, 5.0);
}

TEST(RunResult, TagsSumToTotal) {
  auto sim = make_sim("combined", "oscillating", 16, 4, 0.1, 17);
  const auto r = sim.run(50);
  std::uint64_t tag_sum = 0;
  for (const auto t : r.by_tag) tag_sum += t;
  EXPECT_EQ(tag_sum, r.messages);
}


// Pins the exact cost of membership recovery under churn: every recovery
// re-probes and re-enumerates the fleet through EXISTENCE, so a change in
// the draw order of any primitive moves these numbers. The values were
// recorded with the predicate-per-run implementation of the primitives and
// must not change with how the primitives are simulated.
TEST(Simulator, ChurnRecoveryCountersPinned) {
  StreamSpec spec;
  spec.kind = "random_walk";
  spec.n = 4096;
  spec.k = 8;
  spec.epsilon = 0.1;
  SimConfig cfg;
  cfg.k = 8;
  cfg.epsilon = 0.1;
  cfg.seed = 1;
  FaultConfig faults = fault_preset("churn");
  faults.horizon = 200;
  faults.seed = 1;
  cfg.faults = make_fleet_schedule(faults, spec.n);
  Simulator sim(cfg, make_stream(spec), make_protocol("combined"));
  sim.run(200);

  const CommStats& stats = sim.context().stats();
  EXPECT_EQ(stats.by_tag(MessageTag::kExistence), 0u);
  EXPECT_EQ(stats.by_tag(MessageTag::kViolation), 1444u);
  EXPECT_EQ(stats.by_tag(MessageTag::kProbe), 2827u);
  EXPECT_EQ(stats.by_tag(MessageTag::kFilterBroadcast), 5u);
  EXPECT_EQ(stats.by_tag(MessageTag::kFilterUnicast), 0u);
  EXPECT_EQ(stats.by_tag(MessageTag::kOther), 5u);
  EXPECT_EQ(stats.total(), 4281u);
  EXPECT_EQ(stats.total_rounds(), 17147u);
  EXPECT_EQ(stats.recovery_rounds(), 4u);
  EXPECT_EQ(sim.protocol().output(), (OutputSet{4, 9, 14, 31, 72, 94, 148, 160}));
  const std::array<std::uint64_t, 4> rng_state = {
      0x71398efc4cd11174ULL, 0xb86c8fab78d0dfabULL, 0xa16a1dc671c3c5f6ULL,
      0x0bb8ef180ca5ee50ULL};
  EXPECT_EQ(sim.context().rng().state(), rng_state);
}

}  // namespace
}  // namespace topkmon
