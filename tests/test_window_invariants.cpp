// Sliding-window invariants (src/model/window.hpp and its plumbing):
//   * the monotonic-deque window maximum matches naive O(W) recomputation on
//     random streams for many (n, W) shapes, expiries included;
//   * the W = ∞ path is bit-identical to pre-window snapshots (W = 1 runs —
//     the windowed pipeline with identity values — match W = ∞ runs message
//     for message, and W ≥ T equals the running maximum);
//   * engine results are bit-identical across 1/2/8 threads with
//     mixed-window queries, with and without probe sharing;
//   * an engine-served windowed query matches a standalone windowed
//     Simulator bit-for-bit (the injection seam agrees on both paths);
//   * OfflineOpt on windowed_history equals OfflineOpt on the naively
//     windowed history and the brute-force minimal phase partition on small
//     instances;
//   * the on_window_expiry hook fires exactly on expiry steps.
#include "model/window.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bench_support/runner.hpp"
#include "engine/engine.hpp"
#include "model/oracle.hpp"
#include "offline/brute_force.hpp"
#include "offline/opt.hpp"
#include "protocols/registry.hpp"
#include "sim/simulator.hpp"
#include "streams/registry.hpp"
#include "util/rng.hpp"

namespace topkmon {
namespace {

std::vector<ValueVector> random_history(std::size_t n, std::size_t steps,
                                        std::uint64_t seed, Value hi = 1000) {
  Rng rng(seed);
  std::vector<ValueVector> h(steps, ValueVector(n));
  for (auto& row : h) {
    for (auto& v : row) {
      v = rng.uniform_u64(0, hi);
    }
  }
  return h;
}

StreamSpec walk_spec(std::size_t n = 16, std::size_t k = 3) {
  StreamSpec spec;
  spec.kind = "random_walk";
  spec.n = n;
  spec.k = k;
  spec.epsilon = 0.1;
  spec.sigma = n / 2;
  spec.delta = 1 << 14;
  return spec;
}

// --- deque vs naive recomputation ------------------------------------------

TEST(WindowModel, MatchesNaiveRecomputationOnRandomStreams) {
  for (const std::size_t n : {1u, 3u, 8u}) {
    for (const std::size_t window : {1u, 2u, 5u, 17u, 40u}) {
      const auto history = random_history(n, 60, 1000 + n * 100 + window, 50);
      WindowedValueModel model(n, window);
      for (std::size_t t = 0; t < history.size(); ++t) {
        const ValueVector& got = model.push(static_cast<TimeStep>(t), history[t]);
        EXPECT_EQ(got, naive_window_max(history, t, window))
            << "n=" << n << " W=" << window << " t=" << t;
      }
    }
  }
}

TEST(WindowModel, SparseFallbackMatchesArenaMode) {
  // Forcing max_arena_entries = 0 routes the same stream through the
  // per-node-deque fallback (used when n·W would over-commit the flat
  // arena); outputs and expiry counters must be identical entry for entry.
  for (const std::size_t n : {1u, 4u, 9u}) {
    for (const std::size_t window : {1u, 3u, 16u, 33u}) {
      const auto history = random_history(n, 80, 7000 + n * 100 + window, 40);
      WindowedValueModel arena(n, window);
      WindowedValueModel sparse(n, window, /*max_arena_entries=*/0);
      for (std::size_t t = 0; t < history.size(); ++t) {
        const ValueVector& a = arena.push(static_cast<TimeStep>(t), history[t]);
        const ValueVector& s = sparse.push(static_cast<TimeStep>(t), history[t]);
        ASSERT_EQ(a, s) << "n=" << n << " W=" << window << " t=" << t;
        ASSERT_EQ(arena.last_expirations(), sparse.last_expirations());
      }
      EXPECT_EQ(arena.total_expirations(), sparse.total_expirations());
    }
  }
}

TEST(WindowModel, WindowedHistoryMatchesNaivePerRow) {
  const auto history = random_history(5, 40, 77, 30);
  for (const std::size_t window : {1u, 3u, 9u, 100u}) {
    const auto windowed = windowed_history(history, window);
    ASSERT_EQ(windowed.size(), history.size());
    for (std::size_t t = 0; t < history.size(); ++t) {
      EXPECT_EQ(windowed[t], naive_window_max(history, t, window));
    }
  }
  // W = ∞ is the identity.
  EXPECT_EQ(windowed_history(history, kInfiniteWindow), history);
}

TEST(WindowModel, CountsExpiriesExactly) {
  // W=2, one node, values 5 3 1 4: max 5,5,3,4 — one expiry (t=2, the 5
  // slid out and 3 < 5). t=3 evicts the 3 but 4 > 3: not an expiry.
  WindowedValueModel model(1, 2);
  model.push(0, {5});
  EXPECT_EQ(model.last_expirations(), 0u);
  model.push(1, {3});
  EXPECT_EQ(model.last_expirations(), 0u);
  EXPECT_EQ(model.values()[0], 5u);
  model.push(2, {1});
  EXPECT_EQ(model.last_expirations(), 1u);
  EXPECT_EQ(model.values()[0], 3u);
  model.push(3, {4});
  EXPECT_EQ(model.last_expirations(), 0u);
  EXPECT_EQ(model.values()[0], 4u);
  EXPECT_EQ(model.total_expirations(), 1u);
}

// --- W = ∞ bit-identity ----------------------------------------------------

RunResult run_walk(const std::string& protocol, std::size_t window,
                   std::uint64_t seed, OutputSet* out = nullptr,
                   std::vector<ValueVector>* history = nullptr) {
  SimConfig cfg;
  cfg.k = 3;
  cfg.epsilon = protocol == "exact_topk" ? 0.0 : 0.1;
  cfg.seed = seed;
  cfg.strict = true;
  cfg.window = window;
  cfg.record_history = history != nullptr;
  Simulator sim(cfg, make_stream(walk_spec()), make_protocol(protocol));
  const RunResult r = sim.run(120);
  if (out != nullptr) *out = sim.protocol().output();
  if (history != nullptr) *history = sim.history();
  return r;
}

TEST(WindowBitIdentity, WindowOneEqualsUnwindowed) {
  // W = 1 exercises the full windowed pipeline (model installed, expiry
  // bookkeeping live) but the window maximum of one observation is the
  // observation: every protocol must run message-for-message like W = ∞.
  for (const auto& protocol : protocol_names()) {
    OutputSet out_inf, out_one;
    const RunResult inf = run_walk(protocol, kInfiniteWindow, 42, &out_inf);
    const RunResult one = run_walk(protocol, 1, 42, &out_one);
    EXPECT_EQ(inf.messages, one.messages) << protocol;
    EXPECT_EQ(inf.by_tag, one.by_tag) << protocol;
    EXPECT_EQ(inf.max_rounds_per_step, one.max_rounds_per_step) << protocol;
    EXPECT_EQ(inf.max_sigma, one.max_sigma) << protocol;
    EXPECT_EQ(out_inf, out_one) << protocol;
    EXPECT_EQ(one.window_expirations, 0u) << protocol;
    EXPECT_EQ(inf.window_expirations, 0u) << protocol;
  }
}

TEST(WindowBitIdentity, HugeWindowIsRunningMax) {
  std::vector<ValueVector> raw, windowed;
  run_walk("combined", kInfiniteWindow, 7, nullptr, &raw);
  run_walk("combined", 100000, 7, nullptr, &windowed);
  ASSERT_EQ(raw.size(), windowed.size());
  ValueVector running = raw.front();
  for (std::size_t t = 0; t < raw.size(); ++t) {
    for (std::size_t i = 0; i < running.size(); ++i) {
      running[i] = std::max(running[i], raw[t][i]);
    }
    EXPECT_EQ(windowed[t], running) << "t=" << t;
  }
}

// --- engine: mixed windows, thread invariance, seam agreement ---------------

EngineStats run_engine(std::size_t threads, bool share, std::uint64_t seed) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.seed = seed;
  cfg.share_probes = share;
  MonitoringEngine engine(cfg, make_stream(walk_spec(24, 4)));
  const std::vector<std::string> protocols{"combined", "topk_protocol",
                                           "half_error", "naive_change"};
  const std::vector<std::size_t> windows{kInfiniteWindow, 4, 16, 4};
  for (std::size_t q = 0; q < 12; ++q) {
    QuerySpec spec;
    spec.protocol = protocols[q % protocols.size()];
    spec.k = 2 + q % 3;
    spec.epsilon = 0.05 + 0.05 * (q % 3);
    spec.window = windows[q % windows.size()];
    spec.strict = true;
    engine.add_query(spec);
  }
  return engine.run(100);
}

TEST(WindowEngine, MixedWindowResultsAreThreadScheduleInvariant) {
  for (const bool share : {true, false}) {
    const EngineStats one = run_engine(1, share, 99);
    for (const std::size_t threads : {2u, 8u}) {
      const EngineStats many = run_engine(threads, share, 99);
      ASSERT_EQ(one.queries.size(), many.queries.size());
      EXPECT_EQ(one.query_messages, many.query_messages);
      EXPECT_EQ(one.shared_probe_messages, many.shared_probe_messages);
      EXPECT_EQ(one.window_expirations, many.window_expirations);
      for (std::size_t q = 0; q < one.queries.size(); ++q) {
        EXPECT_EQ(one.queries[q].run.messages, many.queries[q].run.messages)
            << "share=" << share << " threads=" << threads << " q=" << q;
        EXPECT_EQ(one.queries[q].output, many.queries[q].output);
      }
    }
  }
}

TEST(WindowEngine, WindowedQueryMatchesStandaloneSimulator) {
  // One windowed query served by the engine (sharing off, explicit seed)
  // must be bit-identical to a standalone Simulator with SimConfig::window —
  // the two sides of the injection seam. Exercised with faults on top.
  FaultConfig fcfg;
  fcfg.straggler_fraction = 0.25;
  fcfg.max_delay = 4;
  fcfg.churn_rate = 0.02;
  fcfg.horizon = 100;
  fcfg.seed = 5;

  for (const std::size_t window : {kInfiniteWindow, std::size_t{6}}) {
    SimConfig scfg;
    scfg.k = 3;
    scfg.epsilon = 0.1;
    scfg.seed = 31;
    scfg.strict = true;
    scfg.window = window;
    scfg.faults = make_fleet_schedule(fcfg, 16);
    Simulator solo(scfg, make_stream(walk_spec()), make_protocol("combined"));
    const RunResult solo_run = solo.run(100);

    EngineConfig ecfg;
    ecfg.threads = 1;
    ecfg.seed = 31;
    ecfg.share_probes = false;
    ecfg.faults = make_fleet_schedule(fcfg, 16);
    MonitoringEngine engine(ecfg, make_stream(walk_spec()));
    QuerySpec spec;
    spec.protocol = "combined";
    spec.k = 3;
    spec.epsilon = 0.1;
    spec.window = window;
    spec.strict = true;
    spec.seed = 31;
    engine.add_query(spec);
    engine.run(100);
    const RunResult engine_run = engine.query_sim(0).result();

    EXPECT_EQ(solo_run.messages, engine_run.messages) << "W=" << window;
    EXPECT_EQ(solo_run.by_tag, engine_run.by_tag) << "W=" << window;
    EXPECT_EQ(solo_run.window_expirations, engine_run.window_expirations);
    EXPECT_EQ(solo.protocol().output(), engine.output(0)) << "W=" << window;
  }
}

TEST(WindowEngine, SweepRunnerGroupsMixedWindowCellsBitIdentically) {
  // Cells differing only in (protocol, W) each report from run_sweep
  // exactly what their standalone run_experiment (one Simulator per trial,
  // windowed history + plain OPT) reports — including the windowed
  // competitive baseline.
  std::vector<SweepRow> rows;
  for (const auto& protocol : {"combined", "naive_change"}) {
    for (const std::size_t window : {kInfiniteWindow, std::size_t{5}}) {
      ExperimentConfig cfg;
      cfg.stream = walk_spec(12, 3);
      cfg.protocol = protocol;
      cfg.k = 3;
      cfg.epsilon = 0.1;
      cfg.steps = 80;
      cfg.trials = 2;
      cfg.seed = 11;
      cfg.window = window;
      rows.push_back({std::string(protocol) + "/W" + std::to_string(window), cfg});
    }
  }
  const std::vector<ExperimentResult> swept = run_sweep(rows, 2);
  ASSERT_EQ(swept.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ExperimentResult solo = run_experiment(rows[i].cfg);
    EXPECT_EQ(swept[i].messages.mean(), solo.messages.mean()) << rows[i].label;
    EXPECT_EQ(swept[i].opt_phases.mean(), solo.opt_phases.mean()) << rows[i].label;
    EXPECT_EQ(swept[i].last_run.messages, solo.last_run.messages) << rows[i].label;
    EXPECT_EQ(swept[i].last_run.window_expirations,
              solo.last_run.window_expirations)
        << rows[i].label;
  }
}

// --- windowed offline optimum ----------------------------------------------

TEST(WindowedOptTest, EqualsPlainOptOnNaivelyWindowedHistory) {
  const auto history = random_history(6, 50, 1234, 200);
  for (const std::size_t window : {1u, 4u, 12u}) {
    std::vector<ValueVector> naive;
    naive.reserve(history.size());
    for (std::size_t t = 0; t < history.size(); ++t) {
      naive.push_back(naive_window_max(history, t, window));
    }
    const auto windowed = windowed_history(history, window);
    for (const double eps : {0.0, 0.1}) {
      const OptReport a = OfflineOpt::approx(windowed, 2, eps);
      const OptReport b = OfflineOpt::approx(naive, 2, eps);
      EXPECT_EQ(a.phases, b.phases) << "W=" << window << " eps=" << eps;
      EXPECT_EQ(a.phase_starts, b.phase_starts);
    }
    const OptReport a = OfflineOpt::exact(windowed, 2);
    const OptReport b = OfflineOpt::exact(naive, 2);
    EXPECT_EQ(a.phases, b.phases);
  }
}

TEST(WindowedOptTest, GreedyPartitionIsMinimalOnSmallInstances) {
  const auto history = random_history(4, 16, 9, 40);
  for (const std::size_t window : {2u, 5u}) {
    const auto windowed = windowed_history(history, window);
    const OptReport greedy = OfflineOpt::approx(windowed, 2, 0.1);
    EXPECT_EQ(greedy.phases, min_phases_brute(windowed, 2, 0.1)) << "W=" << window;
  }
}

// --- expiry hook dispatch ---------------------------------------------------

/// Minimal valid protocol that counts how dispatch happens: reports all
/// values every step (naive-central style) so output is always correct.
class HookProbeProtocol : public MonitoringProtocol {
 public:
  void start(SimContext& ctx) override { collect(ctx); }
  void on_step(SimContext& ctx) override {
    ++steps_;
    collect(ctx);
  }
  void on_window_expiry(SimContext& ctx) override {
    ++expiries_;
    collect(ctx);
  }
  const OutputSet& output() const override { return out_; }
  std::string_view name() const override { return "hook_probe"; }

  int steps_ = 0;
  int expiries_ = 0;

 private:
  void collect(SimContext& ctx) {
    ValueVector values;
    for (NodeId i = 0; i < ctx.n(); ++i) {
      values.push_back(ctx.report_value(i));
    }
    out_ = Oracle::top_k(values, ctx.k());
    for (NodeId i = 0; i < ctx.n(); ++i) {
      ctx.set_filter_unicast(i, Filter::all());
    }
  }

  OutputSet out_;
};

TEST(WindowExpiryHook, FiresExactlyOnExpirySteps) {
  // Externally driven, W=2, n=1: values 5 3 1 4 → expiry exactly at t=2.
  SimConfig cfg;
  cfg.k = 1;
  cfg.epsilon = 0.1;
  cfg.seed = 1;
  cfg.window = 2;
  auto protocol = std::make_unique<HookProbeProtocol>();
  HookProbeProtocol* hook = protocol.get();
  Simulator sim(cfg, /*n=*/1, std::move(protocol));
  sim.step_with({5});
  sim.step_with({3});
  EXPECT_EQ(hook->expiries_, 0);
  sim.step_with({1});
  EXPECT_EQ(hook->expiries_, 1);
  sim.step_with({4});
  EXPECT_EQ(hook->expiries_, 1);
  EXPECT_EQ(hook->steps_, 2);
  EXPECT_EQ(sim.result().window_expirations, 1u);
}

}  // namespace
}  // namespace topkmon
