// Failure injection and boundary conditions across the stack: constant and
// all-equal streams, two-node systems, extreme values, epsilon extremes,
// mid-run regime cliffs.
#include <gtest/gtest.h>

#include "protocols/generic_framework.hpp"
#include "protocols/registry.hpp"
#include "sim/simulator.hpp"
#include "streams/trace_file.hpp"

namespace topkmon {
namespace {

SimConfig strict_cfg(std::size_t k, double eps, std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.k = k;
  cfg.epsilon = eps;
  cfg.seed = seed;
  cfg.strict = true;
  return cfg;
}

std::vector<ValueVector> repeat(ValueVector row, std::size_t times) {
  return std::vector<ValueVector>(times, std::move(row));
}

class AllProtocolsEdge : public ::testing::TestWithParam<std::string> {};

TEST_P(AllProtocolsEdge, AllEqualValues) {
  // Every node observes the same value: any k-subset is a valid output;
  // filters must still satisfy Obs. 2.2.
  Simulator sim(strict_cfg(3, 0.1),
                std::make_unique<TraceFileStream>(repeat({7, 7, 7, 7, 7, 7}, 30)),
                make_protocol(GetParam()));
  sim.run(30);
  SUCCEED();
}

TEST_P(AllProtocolsEdge, ConstantZeros) {
  Simulator sim(strict_cfg(2, 0.2),
                std::make_unique<TraceFileStream>(repeat({0, 0, 0, 0}, 20)),
                make_protocol(GetParam()));
  sim.run(20);
  SUCCEED();
}

TEST_P(AllProtocolsEdge, TwoNodesKOne) {
  std::vector<ValueVector> rows;
  for (int t = 0; t < 20; ++t) {
    rows.push_back({static_cast<Value>(100 + (t % 5)), static_cast<Value>(90 + (t % 7))});
  }
  Simulator sim(strict_cfg(1, 0.15), std::make_unique<TraceFileStream>(rows),
                make_protocol(GetParam()));
  sim.run(20);
  SUCCEED();
}

TEST_P(AllProtocolsEdge, HugeValuesNearCap) {
  const Value big = kMaxObservableValue - 16;
  std::vector<ValueVector> rows = repeat({big, big - 2, big - 5, 3, 1, 0}, 25);
  Simulator sim(strict_cfg(2, 0.1), std::make_unique<TraceFileStream>(rows),
                make_protocol(GetParam()));
  sim.run(25);
  SUCCEED();
}

TEST_P(AllProtocolsEdge, RegimeCliff) {
  // Everything collapses to near-zero mid-run, then recovers inverted.
  std::vector<ValueVector> rows;
  for (int t = 0; t < 10; ++t) rows.push_back({1000, 900, 800, 700, 50, 40});
  for (int t = 0; t < 10; ++t) rows.push_back({1, 2, 3, 4, 5, 6});
  for (int t = 0; t < 10; ++t) rows.push_back({40, 50, 700, 800, 900, 1000});
  Simulator sim(strict_cfg(3, 0.2), std::make_unique<TraceFileStream>(rows),
                make_protocol(GetParam()));
  sim.run(30);
  SUCCEED();
}

TEST_P(AllProtocolsEdge, TinyEpsilon) {
  const double eps = GetParam() == "exact_topk" || GetParam() == "naive_central" ||
                             GetParam() == "naive_change"
                         ? 0.0
                         : 1e-4;
  std::vector<ValueVector> rows;
  for (int t = 0; t < 20; ++t) {
    rows.push_back({1000000, 999000, 500000 + static_cast<Value>(t * 100), 10});
  }
  Simulator sim(strict_cfg(2, eps), std::make_unique<TraceFileStream>(rows),
                make_protocol(GetParam()));
  sim.run(20);
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(All, AllProtocolsEdge,
                         ::testing::Values("exact_topk", "topk_protocol", "combined",
                                           "half_error", "naive_central",
                                           "naive_change"));

TEST(Threshold, DeterministicCollectCostsExactlyN) {
  SimContext ctx(SimParams{5, 1, 0.1}, 105);
  ctx.advance_time({1, 2, 3, 4, 5});
  const auto before = ctx.stats().total();
  const auto all = collect_all_deterministic(ctx);
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(ctx.stats().total() - before, 5u);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(all[i].id, i);
    EXPECT_EQ(all[i].value, Value{i} + 1);
  }
}

TEST(EdgeCases, SimulatorRejectsOverflowingGenerator) {
  // Generators must stay within kMaxObservableValue — the simulator
  // enforces the contract with a fatal assertion, which we can't catch
  // here; instead verify the boundary value itself is accepted.
  std::vector<ValueVector> rows = repeat({kMaxObservableValue, 1}, 3);
  Simulator sim(strict_cfg(1, 0.1), std::make_unique<TraceFileStream>(rows),
                make_protocol("naive_central"));
  sim.run(3);
  SUCCEED();
}

TEST(EdgeCases, SingleStepRun) {
  std::vector<ValueVector> rows = repeat({5, 3, 1}, 1);
  for (const auto& name : protocol_names()) {
    Simulator sim(strict_cfg(1, 0.1), std::make_unique<TraceFileStream>(rows),
                  make_protocol(name));
    sim.run(1);
    if (serves_topk(sim.protocol())) {
      EXPECT_EQ(sim.protocol().output().size(), 1u) << name;
    } else {
      // Non-top-k kinds keep output() empty and answer via capabilities.
      EXPECT_TRUE(sim.protocol().output().empty()) << name;
    }
  }
}

}  // namespace
}  // namespace topkmon
