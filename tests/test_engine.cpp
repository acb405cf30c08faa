#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include "model/oracle.hpp"
#include "protocols/registry.hpp"
#include "streams/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace topkmon {
namespace {

StreamSpec fleet_spec(const std::string& kind = "random_walk", std::size_t n = 24) {
  StreamSpec spec;
  spec.kind = kind;
  spec.n = n;
  spec.k = 4;
  spec.epsilon = 0.1;
  spec.sigma = n / 2;
  spec.delta = 1 << 14;
  return spec;
}

std::vector<std::uint64_t> per_query_messages(const EngineStats& stats) {
  std::vector<std::uint64_t> out;
  out.reserve(stats.queries.size());
  for (const auto& q : stats.queries) {
    out.push_back(q.run.messages);
  }
  return out;
}

std::vector<OutputSet> per_query_outputs(const EngineStats& stats) {
  std::vector<OutputSet> out;
  out.reserve(stats.queries.size());
  for (const auto& q : stats.queries) {
    out.push_back(q.output);
  }
  return out;
}

// --- Q = 1 equivalence with Simulator::run --------------------------------

TEST(Engine, QueryOfOneMatchesStandaloneSimulator) {
  for (const std::string protocol :
       {"combined", "topk_protocol", "exact_topk", "half_error", "naive_central"}) {
    const double eps = protocol == "exact_topk" ? 0.0 : 0.1;
    const std::uint64_t seed = 99;

    SimConfig sim_cfg;
    sim_cfg.k = 4;
    sim_cfg.epsilon = eps;
    sim_cfg.seed = seed;
    sim_cfg.strict = true;
    Simulator sim(sim_cfg, make_stream(fleet_spec()), make_protocol(protocol));
    const RunResult serial = sim.run(120);

    EngineConfig ecfg;
    ecfg.threads = 1;
    ecfg.seed = seed;
    ecfg.share_probes = false;  // per-query accounting, like a Simulator
    MonitoringEngine engine(ecfg, make_stream(fleet_spec()));
    QuerySpec q;
    q.protocol = protocol;
    q.k = 4;
    q.epsilon = eps;
    q.strict = true;
    q.seed = seed;  // exactly the standalone seed
    const QueryHandle h = engine.add_query(q);
    const EngineStats stats = engine.run(120);

    EXPECT_EQ(stats.queries[h].run.messages, serial.messages) << protocol;
    EXPECT_EQ(stats.queries[h].run.by_tag, serial.by_tag) << protocol;
    EXPECT_EQ(stats.queries[h].run.max_rounds_per_step, serial.max_rounds_per_step)
        << protocol;
    EXPECT_EQ(stats.queries[h].run.max_sigma, serial.max_sigma) << protocol;
    EXPECT_EQ(engine.output(h), sim.protocol().output()) << protocol;
    EXPECT_EQ(stats.shared_probe_messages, 0u);
  }
}

// --- determinism across thread counts --------------------------------------

EngineStats run_mixed_engine(std::size_t threads, bool share_probes,
                             std::uint64_t seed) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.seed = seed;
  cfg.share_probes = share_probes;
  MonitoringEngine engine(cfg, make_stream(fleet_spec("oscillating")));
  const std::vector<std::string> protocols{"combined", "topk_protocol", "half_error",
                                           "exact_topk"};
  for (std::size_t q = 0; q < 16; ++q) {
    QuerySpec spec;
    spec.protocol = protocols[q % protocols.size()];
    spec.k = 2 + q % 5;
    spec.epsilon = spec.protocol == "exact_topk" ? 0.0 : 0.05 + 0.05 * (q % 3);
    spec.strict = true;  // oracle-validate every query at every step
    engine.add_query(spec);
  }
  return engine.run(100);
}

TEST(Engine, BitIdenticalAcrossThreadCounts) {
  for (const bool share : {false, true}) {
    const EngineStats t1 = run_mixed_engine(1, share, 7);
    const EngineStats t4 = run_mixed_engine(4, share, 7);
    const EngineStats t8 = run_mixed_engine(8, share, 7);

    EXPECT_EQ(per_query_messages(t1), per_query_messages(t4)) << "share=" << share;
    EXPECT_EQ(per_query_messages(t1), per_query_messages(t8)) << "share=" << share;
    EXPECT_EQ(per_query_outputs(t1), per_query_outputs(t4)) << "share=" << share;
    EXPECT_EQ(per_query_outputs(t1), per_query_outputs(t8)) << "share=" << share;
    EXPECT_EQ(t1.shared_probe_messages, t4.shared_probe_messages) << "share=" << share;
    EXPECT_EQ(t1.shared_probe_messages, t8.shared_probe_messages) << "share=" << share;
    EXPECT_EQ(t1.messages, t8.messages) << "share=" << share;
    EXPECT_EQ(t1.probe_calls, t8.probe_calls) << "share=" << share;
    EXPECT_EQ(t1.probe_ranks_computed, t8.probe_ranks_computed) << "share=" << share;
  }
}

TEST(Engine, DeterministicAcrossRuns) {
  const EngineStats a = run_mixed_engine(8, true, 21);
  const EngineStats b = run_mixed_engine(8, true, 21);
  EXPECT_EQ(per_query_messages(a), per_query_messages(b));
  EXPECT_EQ(per_query_outputs(a), per_query_outputs(b));
  EXPECT_EQ(a.messages, b.messages);
}

// --- mixed (k, ε) correctness under the strict oracle validator ------------

TEST(Engine, MixedQueriesStayValidOnChurningStreams) {
  // run_mixed_engine already runs with strict = true (the Simulator aborts on
  // any invalid output/filter); additionally re-check every final output
  // against the oracle on the final observation vector.
  EngineConfig cfg;
  cfg.threads = 4;
  cfg.seed = 13;
  MonitoringEngine engine(cfg, make_stream(fleet_spec("oscillating", 16)));
  std::vector<QuerySpec> specs;
  for (std::size_t q = 0; q < 12; ++q) {
    QuerySpec spec;
    spec.protocol = q % 2 == 0 ? "combined" : "half_error";
    spec.k = 1 + q % 6;
    spec.epsilon = 0.05 + 0.03 * (q % 4);
    spec.strict = true;
    specs.push_back(spec);
    engine.add_query(spec);
  }
  engine.run(150);

  ASSERT_EQ(engine.time(), 150u);
  // Every query is unwindowed, so each query's context holds the fleet's
  // final observations.
  ValueVector last;
  for (const Node node : engine.query_sim(0).context().nodes()) {
    last.push_back(node.value());
  }
  for (std::size_t q = 0; q < specs.size(); ++q) {
    const auto& out = engine.output(static_cast<QueryHandle>(q));
    EXPECT_EQ(out.size(), specs[q].k);
    EXPECT_EQ(Oracle::explain_invalid(last, specs[q].k, specs[q].epsilon, out), "")
        << "query " << q;
  }
}

// --- cross-query probe sharing ----------------------------------------------

TEST(Engine, SharedProbesCutTotalMessages) {
  auto run_total = [](bool share) {
    EngineConfig cfg;
    cfg.threads = 1;
    cfg.seed = 5;
    cfg.share_probes = share;
    MonitoringEngine engine(cfg, make_stream(fleet_spec("oscillating")));
    for (std::size_t q = 0; q < 8; ++q) {
      QuerySpec spec;
      spec.protocol = "exact_topk";  // probes top-(k+1) every churn
      spec.k = 4;
      spec.epsilon = 0.0;
      spec.strict = true;
      engine.add_query(spec);
    }
    return engine.run(100);
  };
  const EngineStats unshared = run_total(false);
  const EngineStats shared = run_total(true);
  EXPECT_EQ(unshared.shared_probe_messages, 0u);
  // 8 queries ask per probing step (8 calls) but the 5 ranks they need are
  // computed once per step.
  EXPECT_GT(shared.probe_calls, shared.probe_ranks_computed);
  // 8 identical queries ask the identical top-5 question each step; sharing
  // must collapse nearly 8x of the probe traffic.
  EXPECT_LT(shared.messages, unshared.messages / 4);
}

TEST(Engine, SharedProbeResultsMatchUnshared) {
  // Probe *outcomes* depend only on the snapshot, so outputs of a
  // deterministic-after-probe protocol must agree between modes.
  auto run_outputs = [](bool share) {
    EngineConfig cfg;
    cfg.threads = 1;
    cfg.seed = 11;
    cfg.share_probes = share;
    MonitoringEngine engine(cfg, make_stream(fleet_spec()));
    QuerySpec spec;
    spec.protocol = "exact_topk";
    spec.k = 3;
    spec.epsilon = 0.0;
    spec.strict = true;
    spec.seed = 1234;
    engine.add_query(spec);
    engine.run(80);
    return OutputSet(engine.output(0));
  };
  EXPECT_EQ(run_outputs(false), run_outputs(true));
}

// --- engine plumbing ---------------------------------------------------------

TEST(Engine, StatsAggregateAcrossQueries) {
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.seed = 17;
  cfg.share_probes = false;
  MonitoringEngine engine(cfg, make_stream(fleet_spec("uniform", 8)));
  QuerySpec naive;
  naive.protocol = "naive_central";
  naive.k = 2;
  engine.add_query(naive);
  engine.add_query(naive);
  const EngineStats stats = engine.run(10);
  // naive_central pays n + 1 per step per query.
  EXPECT_EQ(stats.query_messages, 2u * 10u * 9u);
  EXPECT_EQ(stats.messages, stats.query_messages);
  EXPECT_EQ(stats.steps, 10u);
  ASSERT_EQ(stats.queries.size(), 2u);
  EXPECT_EQ(stats.queries[0].run.messages, stats.queries[1].run.messages);
}

TEST(Engine, TotalsMatchKindsTagsAndRegistryWithSharedProbes) {
  // stats() and the per-step publish read one engine-wide total, so the
  // shared probe's traffic shows in the kinds, tags and rounds of totals()
  // exactly as it does in the registry's comm.* counters.
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.seed = 5;
  cfg.share_probes = true;
  MonitoringEngine engine(cfg, make_stream(fleet_spec("zipf_bursty", 256)));
  for (std::size_t q = 0; q < 8; ++q) {
    QuerySpec spec;
    spec.protocol = q % 2 == 0 ? "exact_topk" : "combined";
    spec.k = 2 + q % 3;
    spec.epsilon = q % 2 == 0 ? 0.0 : 0.1;
    engine.add_query(spec);
  }
  telemetry::TelemetrySink sink;
  engine.attach_telemetry(&sink);
  const EngineStats stats = engine.run(300);
  ASSERT_GT(stats.shared_probe_messages, 0u);

  const StatsSnapshot totals = stats.totals();
  std::uint64_t by_tag = 0;
  for (const std::uint64_t m : totals.by_tag) by_tag += m;
  EXPECT_EQ(totals.messages,
            totals.node_to_server + totals.server_to_node + totals.broadcasts);
  EXPECT_EQ(totals.messages, by_tag);
  EXPECT_EQ(totals.messages, stats.query_messages + stats.shared_probe_messages);

  // register_stats_metrics is idempotent: it returns the engine's ids.
  const StatsSnapshotIds ids = register_stats_metrics(sink.registry());
  const telemetry::MetricsRegistry& reg = sink.registry();
  EXPECT_EQ(reg.value(ids.messages), totals.messages);
  EXPECT_EQ(reg.value(ids.node_to_server), totals.node_to_server);
  EXPECT_EQ(reg.value(ids.server_to_node), totals.server_to_node);
  EXPECT_EQ(reg.value(ids.broadcasts), totals.broadcasts);
  for (std::size_t t = 0; t < kNumMessageTags; ++t) {
    EXPECT_EQ(reg.value(ids.by_tag[t]), totals.by_tag[t])
        << to_string(static_cast<MessageTag>(t));
  }
  EXPECT_EQ(reg.value(ids.rounds), totals.rounds);
  EXPECT_EQ(reg.value(ids.messages_lost), totals.messages_lost);
  EXPECT_EQ(reg.value(ids.stale_reads), totals.stale_reads);
  EXPECT_EQ(reg.value(ids.recovery_rounds), totals.recovery_rounds);
  EXPECT_EQ(reg.value(ids.window_expirations), totals.window_expirations);
  EXPECT_EQ(reg.value(reg.find("engine.total_messages")), totals.messages);
}

TEST(Engine, LabelsDefaultToSpecDescription) {
  EngineConfig cfg;
  cfg.seed = 1;
  cfg.threads = 1;
  MonitoringEngine engine(cfg, make_stream(fleet_spec("uniform", 8)));
  QuerySpec spec;
  spec.protocol = "combined";
  spec.k = 2;
  spec.epsilon = 0.25;
  engine.add_query(spec);
  const EngineStats stats = engine.run(5);
  EXPECT_EQ(stats.queries[0].spec.label, "combined k=2 eps=0.25");
}

}  // namespace
}  // namespace topkmon
