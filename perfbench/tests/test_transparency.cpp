// Decorator transparency: with every tracing wrapper attached (TracedStream,
// the registry's traced protocol twins, TimedTransport on both ends of every
// link, profilers), each workload's exact counters must be bit-identical to
// the untraced run: messages, rounds, per-tag counts, wire frames and bytes,
// and every answer, step by step. run_workload performs those comparisons
// itself in a traced run; these tests run each workload briefly and require
// every comparison to come out identical.
#include <gtest/gtest.h>

#include <string>

#include "workloads.hpp"

namespace {

perfbench::Report run_briefly(const std::string& workload) {
  perfbench::RunOptions opts;
  opts.workload = workload;
  opts.seed = 7;
  opts.seconds = 0.1;
  opts.trace = true;
  return perfbench::run_workload(opts, [](const perfbench::Report&) {});
}

void expect_transparent(const perfbench::Report& r) {
  int traced_checks = 0;
  for (const perfbench::Check& c : r.checks) {
    EXPECT_TRUE(c.ok) << c.name << ": " << c.detail;
    if (c.name.rfind("traced vs untraced", 0) == 0) ++traced_checks;
  }
  EXPECT_EQ(traced_checks, 2);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.attempted, 0u);
  EXPECT_FALSE(r.per_layer.empty());
}

double metric(const std::vector<perfbench::Metric>& ms, const std::string& name) {
  for (const perfbench::Metric& m : ms) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "missing metric " << name;
  return 0.0;
}

TEST(Transparency, NetQuiet) {
  const perfbench::Report r = run_briefly("net_quiet");
  expect_transparent(r);
  EXPECT_GT(metric(r.per_layer, "net.bytes_up_per_step"), 0.0);
  EXPECT_GT(metric(r.per_layer, "net.coord_step_ns"), 0.0);
}

TEST(Transparency, SimChurn) {
  const perfbench::Report r = run_briefly("sim_churn");
  expect_transparent(r);
  EXPECT_GT(metric(r.per_layer, "streams.step_ns"), 0.0);
  EXPECT_GT(metric(r.per_layer, "faults.inject_ns"), 0.0);
}

TEST(Transparency, EngineBursty) {
  const perfbench::Report r = run_briefly("engine_bursty");
  expect_transparent(r);
  // The single-worker baseline is compared too.
  bool single = false;
  for (const perfbench::Check& c : r.checks) single |= c.name.rfind("1 worker", 0) == 0;
  EXPECT_TRUE(single);
  EXPECT_GT(metric(r.per_layer, "engine.thread_speedup"), 0.0);
  EXPECT_GT(metric(r.per_layer, "engine.protocol_ns.distinct"), 0.0);
}

TEST(Transparency, UnknownWorkloadThrows) {
  perfbench::RunOptions opts;
  opts.workload = "no_such_workload";
  EXPECT_THROW(perfbench::run_workload(opts, [](const perfbench::Report&) {}),
               std::runtime_error);
}

}  // namespace
