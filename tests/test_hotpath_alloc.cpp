// Zero-allocation invariant of the batched hot path (regression tests).
//
// A steady-state step — quiescent protocol, warmed-up buffers — must not
// touch the heap: the pipeline's staging vector, the injector's effective
// vector and ring, the window rings, TopKOrder and the strict-mode filter
// snapshot are all reused across steps.
// These tests *measure* that with the counting allocator hook
// (util/alloc_counter.hpp) instead of trusting it; they skip when the hook
// is compiled out (sanitizer builds, which install their own allocator).
//
// This suite is also the regression test for the lazy strict-mode snapshot:
// the validator's filter snapshot must only be captured when strict
// validation actually consumes it — a non-strict simulator's step loop
// proves that by allocating nothing at all.
#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "faults/schedule.hpp"
#include "protocols/registry.hpp"
#include "sim/context.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"

namespace topkmon {
namespace {

#define SKIP_WITHOUT_ALLOC_HOOK()                                            \
  if (!alloc_counting_active()) {                                            \
    GTEST_SKIP() << "counting allocator hook not compiled in "               \
                    "(TOPKMON_COUNT_ALLOCS off)";                            \
  }

ValueVector random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ValueVector v(n);
  for (auto& x : v) x = 100000 + rng.below(100000);
  return v;
}

/// Steps `sim` with `values` `warmup` times, then asserts that `measured`
/// further steps allocate exactly zero times on this thread.
void expect_steady_state_alloc_free(Simulator& sim, const ValueVector& values,
                                    int warmup = 8, int measured = 200) {
  for (int i = 0; i < warmup; ++i) {
    sim.step_with(values);
  }
  AllocProbe probe;
  for (int i = 0; i < measured; ++i) {
    sim.step_with(values);
  }
  EXPECT_EQ(probe.delta(), 0u)
      << probe.delta() << " allocations over " << measured << " steps";
}

TEST(HotPathAlloc, CounterObservesThisThreadsAllocations) {
  SKIP_WITHOUT_ALLOC_HOOK();
  AllocProbe probe;
  auto* p = new std::uint64_t[32];
  // Escape the pointer: otherwise -O2 may elide the non-escaping new/delete
  // pair and the probe sees no allocation at all.
  asm volatile("" : : "g"(p) : "memory");
  EXPECT_GE(probe.delta(), 1u);
  EXPECT_GE(probe.delta_bytes(), 32 * sizeof(std::uint64_t));
  delete[] p;
}

TEST(HotPathAlloc, QuiescentStandaloneStepIsAllocFree) {
  SKIP_WITHOUT_ALLOC_HOOK();
  for (const char* protocol : {"combined", "exact_topk", "topk_protocol"}) {
    SimConfig cfg;
    cfg.k = 4;
    cfg.epsilon = 0.1;
    cfg.seed = 5;
    Simulator sim(cfg, 256, make_protocol(protocol));
    expect_steady_state_alloc_free(sim, random_values(256, 5));
  }
}

TEST(HotPathAlloc, WindowedQuiescentStepIsAllocFree) {
  SKIP_WITHOUT_ALLOC_HOOK();
  SimConfig cfg;
  cfg.k = 4;
  cfg.epsilon = 0.1;
  cfg.seed = 6;
  cfg.window = 32;
  Simulator sim(cfg, 256, make_protocol("combined"));
  // Constant values: the window rings roll every step, maxima never change.
  expect_steady_state_alloc_free(sim, random_values(256, 6), /*warmup=*/40);
}

TEST(HotPathAlloc, StragglerSteadyStateIsAllocFree) {
  SKIP_WITHOUT_ALLOC_HOOK();
  // Stragglers exercise the injector's retention ring every step; with a
  // constant stream the effective vector equals the live one, so the
  // protocol stays quiescent while the fault machinery runs at full tilt.
  auto sched = std::make_shared<FleetSchedule>(256);
  for (NodeId i = 0; i < 64; ++i) {
    sched->set_delay(i, 1 + i % 7);
  }
  SimConfig cfg;
  cfg.k = 4;
  cfg.epsilon = 0.1;
  cfg.seed = 7;
  cfg.faults = std::move(sched);
  Simulator sim(cfg, 256, make_protocol("combined"));
  expect_steady_state_alloc_free(sim, random_values(256, 7), /*warmup=*/16);
}

// Acceptance criterion of the telemetry subsystem: with a sink attached —
// registry mirroring, per-phase scoped timers, timeseries sampling all live —
// the steady-state step still allocates exactly zero times. Registry slots
// are preallocated, timer records are plain adds, and the timeseries ring
// allocates once on its first sample (inside warmup) then downsamples in
// place.
TEST(HotPathAlloc, TelemetryAttachedStepIsAllocFree) {
  SKIP_WITHOUT_ALLOC_HOOK();
  SimConfig cfg;
  cfg.k = 4;
  cfg.epsilon = 0.1;
  cfg.seed = 5;
  cfg.window = 32;  // window expirations feed the registry mirror too
  Simulator sim(cfg, 256, make_protocol("combined"));
  telemetry::TelemetrySink sink(/*timeseries_capacity=*/64);
  sim.attach_telemetry(&sink);
  // 64-row ring over 248 steps: several in-place downsampling rounds land
  // inside the measured region.
  expect_steady_state_alloc_free(sim, random_values(256, 5), /*warmup=*/48);
  if (telemetry::kTelemetryEnabled) {
    EXPECT_GT(sink.profiler().calls(telemetry::Phase::kProtocol), 0u);
  }
  EXPECT_GT(sink.registry().value(sink.registry().find("comm.messages")), 0u);
  EXPECT_GT(sink.timeseries().size(), 0u);
}

/// Minimal constant stream for engine-path tests.
class ConstStream final : public StreamGenerator {
 public:
  explicit ConstStream(ValueVector values) : values_(std::move(values)) {}
  std::size_t n() const override { return values_.size(); }
  void init(ValueVector& out, Rng&) override { out = values_; }
  void step(TimeStep, const AdversaryView&, ValueVector& out, Rng&) override {
    out = values_;
  }
  std::string_view name() const override { return "const"; }
  std::unique_ptr<StreamGenerator> clone() const override {
    return std::make_unique<ConstStream>(values_);
  }

 private:
  ValueVector values_;
};

TEST(HotPathAlloc, EngineQuiescentStepIsAllocFree) {
  SKIP_WITHOUT_ALLOC_HOOK();
  EngineConfig cfg;
  cfg.threads = 1;  // inline shards: every allocation lands on this thread
  cfg.seed = 8;
  MonitoringEngine engine(cfg, std::make_unique<ConstStream>(random_values(256, 8)));
  for (std::size_t q = 0; q < 4; ++q) {
    QuerySpec spec;
    spec.protocol = "combined";
    spec.k = 2 + q;
    spec.epsilon = 0.1 + 0.02 * static_cast<double>(q);
    spec.window = q % 2 == 0 ? kInfiniteWindow : 16;
    engine.add_query(spec);
  }
  for (int i = 0; i < 40; ++i) {
    engine.step();
  }
  AllocProbe probe;
  for (int i = 0; i < 200; ++i) {
    engine.step();
  }
  EXPECT_EQ(probe.delta(), 0u);
}

// The threaded engine keeps the invariant too: starting the pool's per-step
// loop publishes the body and index count in place, so the caller thread
// allocates nothing (shard work runs on the workers, whose allocations the
// thread-local probe would not see — the threads = 1 cases cover those).
TEST(HotPathAlloc, ThreadedEngineQuiescentStepIsAllocFree) {
  SKIP_WITHOUT_ALLOC_HOOK();
  EngineConfig cfg;
  cfg.threads = 4;
  cfg.seed = 8;
  MonitoringEngine engine(cfg, std::make_unique<ConstStream>(random_values(256, 8)));
  for (std::size_t q = 0; q < 4; ++q) {
    QuerySpec spec;
    spec.protocol = "combined";
    spec.k = 2 + q;
    spec.epsilon = 0.1 + 0.02 * static_cast<double>(q);
    spec.window = q % 2 == 0 ? kInfiniteWindow : 16;
    engine.add_query(spec);
  }
  for (int i = 0; i < 40; ++i) {
    engine.step();
  }
  AllocProbe probe;
  for (int i = 0; i < 200; ++i) {
    engine.step();
  }
  EXPECT_EQ(probe.delta(), 0u);
}

// The multi-function engine keeps the invariant: one fleet serving all four
// query kinds — top-k, k-select, count-distinct, threshold alerts — still
// allocates exactly zero times per quiescent step. The two new kinds
// maintain their answers purely violation-driven (count_distinct's sketch
// and threshold_alert's above-set only move on reports), so a constant
// stream leaves them untouched after warmup.
TEST(HotPathAlloc, MixedKindEngineQuiescentStepIsAllocFree) {
  SKIP_WITHOUT_ALLOC_HOOK();
  EngineConfig cfg;
  cfg.threads = 1;  // inline shards: every allocation lands on this thread
  cfg.seed = 12;
  MonitoringEngine engine(cfg,
                          std::make_unique<ConstStream>(random_values(256, 12)));
  const QueryKind kinds[] = {QueryKind::kTopK, QueryKind::kKSelect,
                             QueryKind::kCountDistinct, QueryKind::kThreshold};
  for (std::size_t q = 0; q < 8; ++q) {
    QuerySpec spec;
    spec.kind = kinds[q % 4];
    spec.protocol = default_protocol_for(spec.kind);
    spec.k = 2 + q % 3;
    spec.epsilon = 0.1 + 0.02 * static_cast<double>(q % 4);
    spec.window = q % 2 == 0 ? kInfiniteWindow : 16;
    spec.threshold = 150000;  // inside random_values' [100000, 200000) range
    engine.add_query(spec);
  }
  for (int i = 0; i < 40; ++i) {
    engine.step();
  }
  AllocProbe probe;
  for (int i = 0; i < 200; ++i) {
    engine.step();
  }
  EXPECT_EQ(probe.delta(), 0u);
}

TEST(HotPathAlloc, EngineWithTelemetryStepIsAllocFree) {
  SKIP_WITHOUT_ALLOC_HOOK();
  EngineConfig cfg;
  cfg.threads = 1;  // inline shards: every allocation lands on this thread
  cfg.seed = 8;
  MonitoringEngine engine(cfg, std::make_unique<ConstStream>(random_values(256, 8)));
  for (std::size_t q = 0; q < 3; ++q) {
    QuerySpec spec;
    spec.protocol = "combined";
    spec.k = 2 + q;
    spec.epsilon = 0.1;
    spec.window = q == 2 ? 16 : kInfiniteWindow;
    engine.add_query(spec);
  }
  telemetry::TelemetrySink sink(/*timeseries_capacity=*/32);
  engine.attach_telemetry(&sink);
  for (int i = 0; i < 40; ++i) {
    engine.step();
  }
  AllocProbe probe;
  for (int i = 0; i < 200; ++i) {
    engine.step();
  }
  EXPECT_EQ(probe.delta(), 0u);
  EXPECT_GT(sink.registry().value(sink.registry().find("engine.total_messages")),
            0u);
}

// A filter broadcast is one rule pass over the node store plus one
// violation re-derive; with dirty tracking armed (the net runtime's mode)
// it records every id into preallocated buffers. Observation and broadcast
// cycles that flip violation bits both ways must not touch the heap.
TEST(HotPathAlloc, FilterBroadcastIsAllocFree) {
  SKIP_WITHOUT_ALLOC_HOOK();
  constexpr std::size_t kN = 1024;
  SimContext ctx(SimParams{kN, 4, 0.1}, /*protocol_seed=*/11);
  ctx.enable_filter_tracking();
  const ValueVector even = random_values(kN, 11);
  const ValueVector odd = random_values(kN, 12);
  std::size_t violations = 0;
  const auto cycle = [&](int i) {
    ctx.advance_time(i % 2 == 0 ? even : odd);
    const double bar = 150000.0 + 1000.0 * (i % 7);
    ctx.broadcast_filters([bar](const Node& node) {
      return node.id() % 2 == 0 ? Filter::at_most(bar) : Filter::at_least(bar);
    });
    violations += ctx.violating_count();
  };
  for (int i = 0; i < 8; ++i) cycle(i);
  AllocProbe probe;
  for (int i = 0; i < 200; ++i) cycle(i);
  EXPECT_EQ(probe.delta(), 0u) << probe.delta() << " allocations over 200 cycles";
  EXPECT_EQ(ctx.dirty_filters().size(), kN);
  EXPECT_GT(violations, 0u);
}

// Satellite regression: the strict-mode filter snapshot is captured lazily.
// A non-strict simulator must never build it — proven by the zero-alloc
// loop above — and a strict one must keep working (validation still fires
// on the reused filter snapshot).
TEST(HotPathAlloc, StrictModeStillValidates) {
  SimConfig cfg;
  cfg.k = 3;
  cfg.epsilon = 0.1;
  cfg.seed = 9;
  cfg.strict = true;
  Simulator sim(cfg, 64, make_protocol("combined"));
  const ValueVector v = random_values(64, 9);
  for (int i = 0; i < 50; ++i) {
    sim.step_with(v);  // aborts via TOPKMON_ASSERT if validation regressed
  }
  SUCCEED();
}

}  // namespace
}  // namespace topkmon
