// FleetPipeline tests (src/model/fleet_pipeline.hpp): the node-side
// pipeline (generator → fault injector → window) every driver shares.
//   * stale reads counted over host ranges (net::shard_lo partitions) sum to
//     the whole-fleet count at every step, for 1, 2 and 3 hosts, and every
//     single-node range matches the schedule;
//   * a standalone pipeline reproduces, step by step, the monitored vectors
//     a standalone Simulator on the same seed records in its history;
//   * a Simulator driven only through step_on() with a precomputed σ builds
//     no order of its own.
#include "model/fleet_pipeline.hpp"

#include <gtest/gtest.h>

#include "faults/schedule.hpp"
#include "net/coordinator.hpp"
#include "protocols/registry.hpp"
#include "sim/simulator.hpp"
#include "streams/registry.hpp"

namespace topkmon {
namespace {

constexpr std::size_t kN = 37;
constexpr std::size_t kW = 4;
constexpr TimeStep kSteps = 150;
constexpr std::uint64_t kSeed = 2024;

StreamSpec walk_spec() {
  StreamSpec spec;
  spec.kind = "random_walk";
  spec.n = kN;
  spec.k = 4;
  spec.epsilon = 0.1;
  spec.sigma = kN / 2;
  spec.delta = 1 << 12;
  return spec;
}

FleetSchedulePtr churn_and_stragglers() {
  FaultConfig cfg;
  cfg.churn_rate = 0.3;
  cfg.straggler_fraction = 0.25;
  cfg.max_delay = 3;
  cfg.horizon = kSteps;
  cfg.seed = 17;
  return make_fleet_schedule(cfg, kN);
}

FleetPipeline make_pipeline() {
  return FleetPipeline(make_stream(walk_spec()), kSeed, churn_and_stragglers(), kW);
}

TEST(FleetPipeline, HostRangeStaleReadsSumToFleetCount) {
  const FleetSchedulePtr sched = churn_and_stragglers();
  FleetPipeline pipeline(make_stream(walk_spec()), kSeed, sched, kW);
  const OutputSet none;
  const AdversaryView view{{}, &none, 4, 0.1};
  std::uint64_t total = 0;
  for (TimeStep t = 0; t < kSteps; ++t) {
    pipeline.step(t, view, nullptr);
    const std::uint64_t whole = pipeline.stale_reads();
    for (const std::uint32_t hosts : {1u, 2u, 3u}) {
      std::uint64_t sum = 0;
      for (std::uint32_t h = 0; h < hosts; ++h) {
        sum += pipeline.stale_reads(net::shard_lo(kN, hosts, h),
                                    net::shard_lo(kN, hosts, h + 1));
      }
      ASSERT_EQ(sum, whole) << "t=" << t << " hosts=" << hosts;
    }
    // Single-node ranges against the schedule: a node is stale iff t ≥ 1
    // and it is offline or delayed.
    for (NodeId i = 0; i < kN; ++i) {
      const bool stale = t >= 1 && (!sched->online(i, t) || sched->delay(i) > 0);
      ASSERT_EQ(pipeline.stale_reads(i, i + 1), stale ? 1u : 0u)
          << "t=" << t << " node=" << i;
    }
    total += whole;
  }
  EXPECT_EQ(total, pipeline.total_stale_reads());
  EXPECT_GT(total, 0u);
}

TEST(FleetPipeline, MonitoredVectorMatchesStandaloneSimulatorHistory) {
  SimConfig cfg;
  cfg.k = 4;
  cfg.epsilon = 0.1;
  cfg.seed = kSeed;
  cfg.record_history = true;
  cfg.faults = churn_and_stragglers();
  cfg.window = kW;
  Simulator sim(cfg, make_stream(walk_spec()), make_protocol("combined"));
  const RunResult run = sim.run(kSteps);
  ASSERT_EQ(sim.history().size(), kSteps);

  FleetPipeline pipeline = make_pipeline();
  const OutputSet none;
  const AdversaryView view{{}, &none, 4, 0.1};
  std::uint64_t expirations = 0;
  for (TimeStep t = 0; t < kSteps; ++t) {
    const ValueVector& monitored = pipeline.step(t, view, nullptr);
    ASSERT_EQ(monitored, sim.history()[t]) << "t=" << t;
    expirations += pipeline.window_expirations();
  }
  EXPECT_EQ(pipeline.total_stale_reads(), run.stale_reads);
  EXPECT_EQ(expirations, run.window_expirations);
  EXPECT_GT(run.stale_reads, 0u);
  EXPECT_GT(run.window_expirations, 0u);
}

TEST(FleetPipeline, StepOnWithPrecomputedSigmaBuildsNoOrder) {
  SimConfig cfg;
  cfg.k = 4;
  cfg.epsilon = 0.1;
  cfg.faults = churn_and_stragglers();
  cfg.window = kW;
  Simulator sim(cfg, kN, make_protocol("combined"));
  FleetPipeline pipeline = make_pipeline();
  const OutputSet none;
  const AdversaryView view{{}, &none, 4, 0.1};
  for (TimeStep t = 0; t < 20; ++t) {
    StepFacts facts;
    const ValueVector& monitored = pipeline.step(t, view, nullptr);
    facts.stale_reads = pipeline.stale_reads();
    facts.window_expirations = pipeline.window_expirations();
    facts.sigma = 0;
    sim.step_on(monitored, facts);
  }
  EXPECT_EQ(sim.fleet().order_if_ready(), nullptr);
  EXPECT_EQ(sim.result().stale_reads, pipeline.total_stale_reads());
}

}  // namespace
}  // namespace topkmon
