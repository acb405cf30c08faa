// Differential fuzz harness (ctest label: fuzz).
//
// Draws hundreds of random configurations — (seed, n, k, ε, W, protocol,
// stream, fault preset) — and for each runs the full pipeline step by step,
// checking after EVERY step against the brute-force oracle (the centralized
// referee, free of protocol code):
//
//   * output validity: the protocol's F(t) satisfies the Sect. 2 contract on
//     the values the fleet actually holds (windowed and faulted);
//   * filter soundness: the filter set is valid (Obs. 2.2) and quiescent;
//   * exactness: exact_topk's output IS the exact top-k set;
//   * k-select validity: protocols serving QueryKind::kKSelect (the kselect
//     structure) keep every rank's estimate inside the oracle's
//     ε-neighborhood, every step;
//   * count-distinct / threshold exactness: protocols serving the new kinds
//     report the oracle's exact distinct-band count / above-T count;
//   * window differential: the windowed run's observed values equal the
//     naive window maximum over a reference unwindowed run of the same
//     (seed, stream, faults) — the monotonic-deque pipeline vs O(W)
//     recomputation, end to end through Simulator and FaultInjector.
//
// Failures print a minimal `topk_sim` reproducer command line.
//
// The base seed rotates via TOPKMON_FUZZ_SEED (CI sets it per run on main
// pushes and pins it on PRs); the tuple count via TOPKMON_FUZZ_CONFIGS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "faults/registry.hpp"
#include "model/oracle.hpp"
#include "model/window.hpp"
#include "net/coordinator.hpp"
#include "protocols/registry.hpp"
#include "sim/simulator.hpp"
#include "streams/registry.hpp"
#include "util/rng.hpp"

namespace topkmon {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::strtoull(v, nullptr, 10);
}

struct FuzzConfig {
  std::string protocol;
  std::string stream;
  std::string faults;
  std::size_t n = 8;
  std::size_t k = 2;
  double epsilon = 0.1;
  std::size_t window = 0;
  Value threshold = 0;  ///< bound T (drawn for threshold_alert only)
  std::uint64_t seed = 1;
  std::uint64_t fault_seed = 1;
  TimeStep steps = 40;
};

/// Minimal topk_sim command line reproducing this configuration (the CLI's
/// defaults — delta, sigma, walk parameters — match draw()'s choices). The
/// full c.steps is kept — the fault schedule is generated over the run
/// horizon, so truncating --steps would script a different fault trace —
/// and strict mode aborts at the originally failing step anyway.
std::string reproducer(const FuzzConfig& c) {
  std::ostringstream oss;
  oss << "topk_sim --protocol " << c.protocol << " --stream " << c.stream
      << " --n " << c.n << " --k " << c.k << " --eps "
      << (c.epsilon > 0.0 ? c.epsilon : 0.1) << " --protocol-eps " << c.epsilon
      << " --window " << c.window << " --seed " << c.seed << " --steps "
      << c.steps << " --strict";
  if (c.protocol == "threshold_alert") {
    oss << " --bound " << c.threshold;
  }
  if (c.faults != "none") {
    oss << " --faults " << c.faults << " --fault-seed " << c.fault_seed;
  }
  return oss.str();
}

/// Uniform draw over the fuzz space. Adaptive adversarial streams are
/// excluded: the reference (unwindowed) run would see a different stream
/// because the adversary reacts to the windowed protocol's state, so the
/// differential comparison is undefined for them.
FuzzConfig draw(Rng& rng, std::uint64_t tuple_seed) {
  static const std::vector<std::string> streams{"random_walk", "uniform",
                                                "oscillating", "zipf_bursty",
                                                "sine_noise"};
  static const std::vector<std::string> fault_presets{"none", "churn",
                                                      "stragglers", "lossy",
                                                      "flaky"};
  static const std::vector<std::size_t> windows{0, 1, 2, 3, 5, 8, 16, 64};

  const std::vector<std::string> protocols = protocol_names();
  FuzzConfig c;
  c.protocol = protocols[rng.below(protocols.size())];
  c.stream = streams[rng.below(streams.size())];
  c.faults = fault_presets[rng.below(fault_presets.size())];
  c.n = 4 + rng.below(21);  // 4..24
  c.k = 1 + rng.below(std::min<std::size_t>(c.n - 1, 5));
  c.epsilon = c.protocol == "exact_topk" ? 0.0 : 0.05 + 0.05 * rng.below(5);
  c.window = windows[rng.below(windows.size())];
  if (c.protocol == "threshold_alert") {
    // Somewhere inside the value range (delta = 1 << 20), so both filter
    // sides stay populated and side flips actually happen.
    c.threshold = rng.below(std::uint64_t{1} << 20);
  }
  c.seed = tuple_seed;
  c.fault_seed = splitmix_combine(tuple_seed, 0xFA);
  c.steps = 20 + static_cast<TimeStep>(rng.below(41));  // 20..60
  return c;
}

/// StreamSpec with exactly topk_sim's defaults, so the reproducer replays
/// the identical stream.
StreamSpec spec_for(const FuzzConfig& c) {
  StreamSpec spec;
  spec.kind = c.stream;
  spec.n = c.n;
  spec.k = c.k;
  spec.epsilon = c.epsilon > 0.0 ? c.epsilon : 0.1;  // band ε for exact cells
  spec.delta = 1 << 20;
  spec.sigma = c.n / 2;
  return spec;
}

FleetSchedulePtr schedule_for(const FuzzConfig& c) {
  FaultConfig fcfg = fault_preset(c.faults);
  fcfg.horizon = c.steps;
  fcfg.seed = c.fault_seed;
  return make_fleet_schedule(fcfg, c.n);
}

Simulator make_sim(const FuzzConfig& c, std::size_t window, bool record) {
  SimConfig cfg;
  cfg.k = c.k;
  cfg.epsilon = c.epsilon;
  cfg.seed = c.seed;
  cfg.window = window;
  cfg.threshold = c.threshold;
  cfg.record_history = record;
  cfg.faults = schedule_for(c);
  return Simulator(cfg, make_stream(spec_for(c)), make_protocol(c.protocol));
}

ValueVector observed_values(const Simulator& sim) {
  ValueVector v;
  v.reserve(sim.context().n());
  for (const Node& node : sim.context().nodes()) {
    v.push_back(node.value());
  }
  return v;
}

/// One fuzz tuple: returns false (with test failures recorded) on the first
/// violated invariant so a single bad config doesn't spam hundreds of lines.
bool run_config(const FuzzConfig& c) {
  Simulator sim = make_sim(c, c.window, /*record=*/false);
  // Reference fleet: same stream, same faults, no windowing. Its recorded
  // history is the raw effective stream the window model must aggregate.
  Simulator ref = make_sim(c, kInfiniteWindow, /*record=*/true);

  for (TimeStep t = 0; t < c.steps; ++t) {
    sim.step();
    ref.step();

    const ValueVector values = observed_values(sim);

    // (1) Differential window check: deque pipeline vs naive recomputation.
    if (c.window != kInfiniteWindow) {
      const ValueVector expected = naive_window_max(
          ref.history(), static_cast<std::size_t>(t), c.window);
      if (values != expected) {
        ADD_FAILURE() << "windowed values diverge from naive window max at t="
                      << t << "\n  repro: " << reproducer(c);
        return false;
      }
    } else if (values != ref.history().back()) {
      ADD_FAILURE() << "unwindowed run diverges from its reference at t=" << t
                    << "\n  repro: " << reproducer(c);
      return false;
    }

    // (2) Output validity against the brute-force oracle — top-k servers
    //     only; other kinds keep output() empty by contract.
    const bool topk = serves_topk(sim.protocol());
    const OutputSet& out = sim.protocol().output();
    if (topk) {
      const std::string why = Oracle::explain_invalid(values, c.k, c.epsilon, out);
      if (!why.empty()) {
        ADD_FAILURE() << "invalid output at t=" << t << " [" << c.protocol
                      << "]: " << why << "\n  repro: " << reproducer(c);
        return false;
      }
    }

    // (3) Exact protocols must report the exact top-k set.
    if (topk && c.epsilon == 0.0 && out != Oracle::top_k(values, c.k)) {
      ADD_FAILURE() << "exact protocol missed the exact top-k at t=" << t
                    << "\n  repro: " << reproducer(c);
      return false;
    }

    // (4) K-select estimates (when the protocol serves them) vs the oracle,
    //     for every supported rank.
    if (const QueryCapabilities* q =
            capability_for(sim.protocol(), QueryKind::kKSelect)) {
      const std::size_t jmax = std::min(q->kselect_max_rank(), c.k);
      for (std::size_t j = 1; j <= jmax; ++j) {
        const std::string bad =
            Oracle::explain_kselect_invalid(values, j, c.epsilon, q->kselect(j));
        if (!bad.empty()) {
          ADD_FAILURE() << "invalid k-select estimate at t=" << t << " j=" << j
                        << " [" << c.protocol << "]: " << bad
                        << "\n  repro: " << reproducer(c);
          return false;
        }
      }
    }

    // (5) Count-distinct / threshold answers must be EXACT vs the oracle.
    if (const QueryCapabilities* q =
            capability_for(sim.protocol(), QueryKind::kCountDistinct)) {
      const std::uint64_t expect = Oracle::distinct_count(
          std::span<const Value>(values.data(), values.size()), c.epsilon);
      if (q->distinct_count() != expect) {
        ADD_FAILURE() << "wrong distinct count at t=" << t << ": got "
                      << q->distinct_count() << ", oracle says " << expect
                      << "\n  repro: " << reproducer(c);
        return false;
      }
    }
    if (const QueryCapabilities* q =
            capability_for(sim.protocol(), QueryKind::kThreshold)) {
      const std::uint64_t expect = Oracle::count_above(
          std::span<const Value>(values.data(), values.size()), c.threshold);
      if (q->above_count() != expect || q->alert_active() != (expect > 0)) {
        ADD_FAILURE() << "wrong threshold answer at t=" << t << ": got "
                      << q->above_count() << " above T=" << c.threshold
                      << ", oracle says " << expect
                      << "\n  repro: " << reproducer(c);
        return false;
      }
    }

    // (6) Filter soundness: valid per Obs. 2.2 (top-k servers) and quiescent.
    std::vector<Filter> filters;
    filters.reserve(sim.context().n());
    for (const Node& node : sim.context().nodes()) {
      filters.push_back(node.filter());
    }
    const std::span<const Filter> fspan(filters.data(), filters.size());
    if ((topk && !filters_valid(fspan, out, c.epsilon)) ||
        !all_within(fspan, std::span<const Value>(values.data(), values.size()))) {
      ADD_FAILURE() << "invalid/violated filter set at t=" << t
                    << "\n  repro: " << reproducer(c);
      return false;
    }
  }
  return true;
}

TEST(DifferentialFuzz, RandomConfigurationsUpholdTheOracleContract) {
  const std::uint64_t base_seed = env_u64("TOPKMON_FUZZ_SEED", 20260730);
  const std::uint64_t configs = env_u64("TOPKMON_FUZZ_CONFIGS", 240);
  RecordProperty("fuzz_seed", static_cast<int>(base_seed));

  Rng rng(splitmix_combine(base_seed, 0xD1FF));
  std::size_t windowed = 0;
  for (std::uint64_t i = 0; i < configs; ++i) {
    const FuzzConfig c = draw(rng, splitmix_combine(base_seed, i));
    windowed += c.window != kInfiniteWindow;
    if (!run_config(c)) {
      GTEST_FAIL() << "fuzz config " << i << " of " << configs
                   << " failed (base seed " << base_seed << ")";
    }
  }
  // The draw space must keep exercising both modes.
  EXPECT_GT(windowed, configs / 4);
  EXPECT_GT(configs - windowed, 0u);
}

/// Sim-vs-network differential: the networked runtime (src/net) must
/// reproduce the standalone Simulator's model-level counters and final
/// output BIT-IDENTICALLY on loss-free links, for every drawn configuration.
/// The draw space is the same as the oracle fuzz above (all non-adaptive
/// streams, every fault preset, windowed and unwindowed), with a rotating
/// host count; node-hosts run as real threads over loopback links.
bool run_network_config(const FuzzConfig& c, std::uint32_t hosts) {
  net::RunSpec spec;
  spec.stream = spec_for(c);
  spec.protocol = c.protocol;
  spec.protocol_epsilon = c.epsilon;
  spec.seed = c.seed;
  spec.window = c.window;
  spec.steps = c.steps;
  spec.threshold = c.threshold;
  spec.faults = fault_preset(c.faults);
  spec.faults.horizon = c.steps;
  spec.faults.seed = c.fault_seed;

  Simulator sim = make_sim(c, c.window, /*record=*/false);
  const RunResult expected = sim.run(c.steps);

  net::InprocNetOptions opts;
  opts.hosts = hosts;
  opts.link_loss = 0.0;  // bit-identity needs loss-free links
  const net::InprocNetReport rep = net::run_networked_inproc(spec, opts);

  for (std::uint32_t h = 0; h < hosts; ++h) {
    if (rep.host_exit[h] != 0) {
      ADD_FAILURE() << "node-host " << h << " failed\n  repro: " << reproducer(c);
      return false;
    }
  }
  if (rep.quiescence_errors != 0) {
    ADD_FAILURE() << rep.quiescence_errors << " quiescence errors\n  repro: "
                  << reproducer(c);
    return false;
  }
  if (rep.output != sim.protocol().output()) {
    ADD_FAILURE() << "networked output diverges\n  repro: " << reproducer(c);
    return false;
  }
  if (const QueryCapabilities* q =
          capability_for(sim.protocol(), QueryKind::kKSelect)) {
    std::vector<Value> expected_est;
    for (std::size_t j = 1; j <= std::min(q->kselect_max_rank(), c.k); ++j) {
      expected_est.push_back(q->kselect(j));
    }
    if (rep.kselect_estimates != expected_est) {
      ADD_FAILURE() << "networked k-select estimates diverge\n  repro: "
                    << reproducer(c);
      return false;
    }
  }
  if (const QueryCapabilities* q =
          capability_for(sim.protocol(), QueryKind::kCountDistinct)) {
    if (rep.distinct_count != std::optional<std::uint64_t>(q->distinct_count())) {
      ADD_FAILURE() << "networked distinct count diverges\n  repro: "
                    << reproducer(c);
      return false;
    }
  }
  if (const QueryCapabilities* q =
          capability_for(sim.protocol(), QueryKind::kThreshold)) {
    if (rep.threshold_above != std::optional<std::uint64_t>(q->above_count())) {
      ADD_FAILURE() << "networked threshold count diverges\n  repro: "
                    << reproducer(c);
      return false;
    }
  }
  StatsSnapshot model = rep.run;
  model.net = NetChannelStats{};  // wire counters are networked-only
  if (model != static_cast<const StatsSnapshot&>(expected) ||
      rep.run.max_rounds_per_step != expected.max_rounds_per_step ||
      rep.run.max_sigma != expected.max_sigma) {
    ADD_FAILURE() << "networked model counters diverge from the simulator"
                  << "\n  repro: " << reproducer(c);
    return false;
  }
  return true;
}

TEST(DifferentialFuzz, NetworkedRuntimeReproducesTheSimulatorBitIdentically) {
  const std::uint64_t base_seed = env_u64("TOPKMON_FUZZ_SEED", 20260730);
  const std::uint64_t configs = env_u64("TOPKMON_FUZZ_NET_CONFIGS", 60);
  RecordProperty("fuzz_seed", static_cast<int>(base_seed));

  Rng rng(splitmix_combine(base_seed, 0x4E70));
  for (std::uint64_t i = 0; i < configs; ++i) {
    const FuzzConfig c = draw(rng, splitmix_combine(base_seed, 0x4E700000u + i));
    const std::uint32_t hosts =
        1 + static_cast<std::uint32_t>(rng.below(std::min<std::size_t>(c.n, 4)));
    if (!run_network_config(c, hosts)) {
      GTEST_FAIL() << "network fuzz config " << i << " of " << configs
                   << " failed (base seed " << base_seed << ", hosts " << hosts
                   << ")";
    }
  }
}

/// Mixed-kind engine fuzz: one fleet, a random mix of all four query kinds,
/// every query in strict mode — each strict validator checks its own kind's
/// oracle contract (top-k Sect. 2 validity, k-select ε-neighborhood, exact
/// distinct-band count, exact above-T count) after EVERY step, with shared
/// probes on and random sliding windows. Any contract violation aborts.
TEST(DifferentialFuzz, RandomQueryKindMixesUpholdEveryKindsContract) {
  const std::uint64_t base_seed = env_u64("TOPKMON_FUZZ_SEED", 20260730);
  const std::uint64_t mixes = env_u64("TOPKMON_FUZZ_MIX_CONFIGS", 40);
  RecordProperty("fuzz_seed", static_cast<int>(base_seed));

  static const std::vector<std::string> streams{"random_walk", "uniform",
                                                "oscillating", "zipf_bursty",
                                                "sine_noise"};
  static const std::vector<std::size_t> windows{0, 0, 1, 8, 16, 64};

  Rng rng(splitmix_combine(base_seed, 0x317E));
  for (std::uint64_t i = 0; i < mixes; ++i) {
    StreamSpec spec;
    spec.kind = streams[rng.below(streams.size())];
    spec.n = 6 + rng.below(19);  // 6..24
    spec.k = 1 + rng.below(std::min<std::size_t>(spec.n - 1, 4));
    spec.epsilon = 0.05 + 0.05 * rng.below(5);
    spec.delta = 1 << 20;
    spec.sigma = spec.n / 2;

    EngineConfig ecfg;
    ecfg.threads = 1 + rng.below(4);
    ecfg.seed = splitmix_combine(base_seed, 0x317E0000u + i);
    ecfg.share_probes = rng.below(2) == 0;
    MonitoringEngine engine(ecfg, make_stream(spec));

    const std::size_t q_count = 2 + rng.below(7);  // 2..8 queries
    for (std::size_t q = 0; q < q_count; ++q) {
      QuerySpec qs;
      qs.kind = static_cast<QueryKind>(rng.below(kNumQueryKinds));
      qs.protocol = default_protocol_for(qs.kind);
      qs.k = 1 + rng.below(std::min<std::size_t>(spec.n - 1, 4));
      qs.epsilon = 0.05 + 0.05 * rng.below(5);
      qs.window = windows[rng.below(windows.size())];
      qs.threshold = rng.below(std::uint64_t{1} << 20);
      qs.strict = true;
      engine.add_query(qs);
    }

    const TimeStep steps = 20 + static_cast<TimeStep>(rng.below(31));
    const EngineStats stats = engine.run(steps);
    const std::string where =
        "mix " + std::to_string(i) + " (base seed " + std::to_string(base_seed) + ")";
    EXPECT_EQ(stats.steps, static_cast<std::uint64_t>(steps)) << where;

    // One engine-wide total: kinds, tags and per-query runs plus the shared
    // probe all account for the same messages, with probes shared or not.
    std::uint64_t by_tag = 0, by_query = 0;
    for (const std::uint64_t m : stats.by_tag) by_tag += m;
    for (const QueryStats& q : stats.queries) by_query += q.run.messages;
    EXPECT_EQ(stats.messages,
              stats.node_to_server + stats.server_to_node + stats.broadcasts)
        << where;
    EXPECT_EQ(stats.messages, by_tag) << where;
    EXPECT_EQ(stats.messages, by_query + stats.shared_probe_messages) << where;
  }
}

}  // namespace
}  // namespace topkmon
