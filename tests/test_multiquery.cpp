// Multi-function monitoring engine: heterogeneous query kinds behind the
// unified QuerySpec API (ctest label `multiquery`; runs on the TSan CI leg).
//
// What this suite pins:
//   * engine-vs-standalone bit-identity for each NEW kind (count-distinct,
//     threshold alerts): a one-query engine with an explicit per-query seed
//     and share_probes=false books exactly the messages a standalone
//     Simulator books, and answers identically;
//   * one fleet, all four kinds at once, strict: every query oracle-validates
//     every step, and the final answers match the exact baselines recomputed
//     from the engine's shared history;
//   * the redesign is invisible to the existing kinds: explicit-seed top-k
//     and k-select queries inside a mixed-kind engine remain bit-identical
//     to their standalone Simulators;
//   * the declarative --query surface: parse_query_spec round-trips every
//     kind, default_protocol_for maps kinds to registered protocols, and the
//     engine rejects kind/protocol mismatches;
//   * DistinctSketch is a real mergeable sketch (commutative, associative,
//     order-independent) — the shard-combining contract the data plane uses.
#include <gtest/gtest.h>

#include <stdexcept>

#include "engine/engine.hpp"
#include "model/distinct_sketch.hpp"
#include "model/oracle.hpp"
#include "protocols/count_distinct.hpp"
#include "protocols/registry.hpp"
#include "protocols/threshold_alert.hpp"
#include "streams/registry.hpp"
#include "util/rng.hpp"

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

constexpr Value kBound = 1 << 13;  // inside the fleet_spec value range

// --- engine vs standalone, per new kind -----------------------------------

TEST(MultiQuery, CountDistinctEngineMatchesStandaloneSimulator) {
  const std::uint64_t seed = 77;
  SimConfig sim_cfg;
  sim_cfg.k = 4;
  sim_cfg.epsilon = 0.1;
  sim_cfg.seed = seed;
  sim_cfg.strict = true;
  Simulator sim(sim_cfg, make_stream(fleet_spec()), make_protocol("count_distinct"));
  const RunResult serial = sim.run(150);
  const QueryCapabilities* serial_caps =
      capability_for(sim.protocol(), QueryKind::kCountDistinct);
  ASSERT_NE(serial_caps, nullptr);

  EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.seed = seed;
  ecfg.share_probes = false;  // per-query accounting, like a Simulator
  MonitoringEngine engine(ecfg, make_stream(fleet_spec()));
  QuerySpec q;
  q.kind = QueryKind::kCountDistinct;
  q.k = 4;
  q.epsilon = 0.1;
  q.strict = true;
  q.seed = seed;  // exactly the standalone seed
  const QueryHandle h = engine.add_query(q);
  const EngineStats stats = engine.run(150);

  EXPECT_EQ(stats.queries[h].run.messages, serial.messages);
  EXPECT_EQ(stats.queries[h].run.by_tag, serial.by_tag);
  EXPECT_EQ(stats.queries[h].run.broadcasts, serial.broadcasts);
  const QueryCapabilities* caps = engine.capability(h, QueryKind::kCountDistinct);
  ASSERT_NE(caps, nullptr);
  EXPECT_EQ(caps->distinct_count(), serial_caps->distinct_count());
  EXPECT_EQ(stats.queries[h].spec.kind, QueryKind::kCountDistinct);
}

TEST(MultiQuery, ThresholdEngineMatchesStandaloneSimulator) {
  const std::uint64_t seed = 78;
  SimConfig sim_cfg;
  sim_cfg.k = 4;
  sim_cfg.epsilon = 0.1;
  sim_cfg.seed = seed;
  sim_cfg.strict = true;
  sim_cfg.threshold = kBound;
  Simulator sim(sim_cfg, make_stream(fleet_spec("oscillating")),
                make_protocol("threshold_alert"));
  const RunResult serial = sim.run(150);
  const QueryCapabilities* serial_caps =
      capability_for(sim.protocol(), QueryKind::kThreshold);
  ASSERT_NE(serial_caps, nullptr);

  EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.seed = seed;
  ecfg.share_probes = false;
  MonitoringEngine engine(ecfg, make_stream(fleet_spec("oscillating")));
  QuerySpec q;
  q.kind = QueryKind::kThreshold;
  q.k = 4;
  q.epsilon = 0.1;
  q.threshold = kBound;
  q.strict = true;
  q.seed = seed;
  const QueryHandle h = engine.add_query(q);
  const EngineStats stats = engine.run(150);

  EXPECT_EQ(stats.queries[h].run.messages, serial.messages);
  EXPECT_EQ(stats.queries[h].run.by_tag, serial.by_tag);
  const QueryCapabilities* caps = engine.capability(h, QueryKind::kThreshold);
  ASSERT_NE(caps, nullptr);
  EXPECT_EQ(caps->above_count(), serial_caps->above_count());
  EXPECT_EQ(caps->alert_active(), serial_caps->alert_active());
}

// --- all four kinds on one fleet, strict, vs exact baselines ---------------

TEST(MultiQuery, AllFourKindsOnOneFleetStrictMatchOracle) {
  EngineConfig ecfg;
  ecfg.threads = 4;
  ecfg.seed = 31;
  MonitoringEngine engine(ecfg, make_stream(fleet_spec("oscillating", 32)));

  const QueryKind kinds[] = {QueryKind::kTopK, QueryKind::kKSelect,
                             QueryKind::kCountDistinct, QueryKind::kThreshold};
  std::vector<QueryHandle> handles;
  for (const QueryKind kind : kinds) {
    QuerySpec q;
    q.kind = kind;
    q.k = 3;
    q.epsilon = 0.12;
    q.threshold = kBound;
    q.strict = true;  // oracle-validate every query at every step
    handles.push_back(engine.add_query(q));
  }
  const EngineStats stats = engine.run(200);
  EXPECT_EQ(stats.steps, 200u);
  // Every query is unwindowed, so each query's context holds the fleet's
  // final observations.
  ValueVector final_values;
  for (const Node node : engine.query_sim(handles[0]).context().nodes()) {
    final_values.push_back(node.value());
  }

  // Top-k: the output is an ε-valid top-3 position set of the final vector
  // (strict mode already asserted this at every step; re-check the surface).
  const OutputSet& topk = engine.output(handles[0]);
  EXPECT_EQ(topk.size(), 3u);
  EXPECT_TRUE(Oracle::explain_invalid(final_values, 3, 0.12, topk).empty());

  // k-select: every rank estimate is within ε of the exact order statistic.
  const QueryCapabilities* ks = engine.capability(handles[1], QueryKind::kKSelect);
  ASSERT_NE(ks, nullptr);
  for (std::size_t j = 1; j <= 3; ++j) {
    EXPECT_TRUE(
        Oracle::explain_kselect_invalid(final_values, j, 0.12, ks->kselect(j))
            .empty())
        << "rank " << j;
  }

  // Count-distinct and threshold answers are EXACT, not approximate.
  const QueryCapabilities* cd =
      engine.capability(handles[2], QueryKind::kCountDistinct);
  ASSERT_NE(cd, nullptr);
  EXPECT_EQ(cd->distinct_count(), Oracle::distinct_count(final_values, 0.12));

  const QueryCapabilities* th = engine.capability(handles[3], QueryKind::kThreshold);
  ASSERT_NE(th, nullptr);
  const std::uint64_t above = Oracle::count_above(final_values, kBound);
  EXPECT_EQ(th->above_count(), above);
  EXPECT_EQ(th->alert_active(), above > 0);
}

TEST(MultiQuery, MixedKindEngineIsBitIdenticalAcrossThreadCounts) {
  auto run = [](std::size_t threads) {
    EngineConfig cfg;
    cfg.threads = threads;
    cfg.seed = 9;
    MonitoringEngine engine(cfg, make_stream(fleet_spec("zipf_bursty", 28)));
    for (std::size_t q = 0; q < 8; ++q) {
      QuerySpec spec;
      spec.kind = static_cast<QueryKind>(q % kNumQueryKinds);
      spec.k = 2 + q % 3;
      spec.epsilon = 0.08 + 0.04 * static_cast<double>(q % 2);
      spec.threshold = kBound;
      spec.window = q % 3 == 0 ? 16 : kInfiniteWindow;
      spec.strict = true;
      engine.add_query(spec);
    }
    return engine.run(120);
  };
  const EngineStats t1 = run(1);
  const EngineStats t4 = run(4);
  ASSERT_EQ(t1.queries.size(), t4.queries.size());
  for (std::size_t q = 0; q < t1.queries.size(); ++q) {
    EXPECT_EQ(t1.queries[q].run.messages, t4.queries[q].run.messages) << q;
    EXPECT_EQ(t1.queries[q].run.by_tag, t4.queries[q].run.by_tag) << q;
    EXPECT_EQ(t1.queries[q].output, t4.queries[q].output) << q;
  }
  EXPECT_EQ(t1.messages, t4.messages);
}

// --- the redesign is invisible to the existing kinds -----------------------

TEST(MultiQuery, TopKAndKSelectInMixedEngineStayBitIdenticalToStandalone) {
  const std::uint64_t seed = 55;
  const TimeStep steps = 140;

  // Standalone references over the same stream seed the engine will use —
  // one seed drives both the generator and the protocol-side RNG.
  SimConfig topk_cfg;
  topk_cfg.k = 4;
  topk_cfg.epsilon = 0.1;
  topk_cfg.seed = seed;
  Simulator topk_sim(topk_cfg, make_stream(fleet_spec()), make_protocol("combined"));
  const RunResult topk_serial = topk_sim.run(steps);

  SimConfig ks_cfg;
  ks_cfg.k = 3;
  ks_cfg.epsilon = 0.15;
  ks_cfg.seed = seed;
  Simulator ks_sim(ks_cfg, make_stream(fleet_spec()), make_protocol("kselect"));
  const RunResult ks_serial = ks_sim.run(steps);

  // The same two queries inside an engine ALSO serving the two new kinds:
  // adding heterogeneous queries must not perturb a single message.
  EngineConfig ecfg;
  ecfg.threads = 2;
  ecfg.seed = seed;  // the shared stream replays the standalone one
  ecfg.share_probes = false;
  MonitoringEngine engine(ecfg, make_stream(fleet_spec()));

  QuerySpec topk_q;
  topk_q.protocol = "combined";
  topk_q.k = 4;
  topk_q.epsilon = 0.1;
  topk_q.seed = seed;
  const QueryHandle topk_h = engine.add_query(topk_q);

  QuerySpec ks_q;
  ks_q.kind = QueryKind::kKSelect;
  ks_q.k = 3;
  ks_q.epsilon = 0.15;
  ks_q.seed = seed;
  const QueryHandle ks_h = engine.add_query(ks_q);

  QuerySpec cd_q;
  cd_q.kind = QueryKind::kCountDistinct;
  cd_q.k = 2;
  cd_q.epsilon = 0.1;
  engine.add_query(cd_q);

  QuerySpec th_q;
  th_q.kind = QueryKind::kThreshold;
  th_q.k = 2;
  th_q.epsilon = 0.1;
  th_q.threshold = kBound;
  engine.add_query(th_q);

  const EngineStats stats = engine.run(steps);

  EXPECT_EQ(stats.queries[topk_h].run.messages, topk_serial.messages);
  EXPECT_EQ(stats.queries[topk_h].run.by_tag, topk_serial.by_tag);
  EXPECT_EQ(engine.output(topk_h), topk_sim.protocol().output());

  EXPECT_EQ(stats.queries[ks_h].run.messages, ks_serial.messages);
  EXPECT_EQ(stats.queries[ks_h].run.by_tag, ks_serial.by_tag);
  const QueryCapabilities* engine_ks = engine.kselect(ks_h);
  const QueryCapabilities* serial_ks =
      capability_for(ks_sim.protocol(), QueryKind::kKSelect);
  ASSERT_NE(engine_ks, nullptr);
  ASSERT_NE(serial_ks, nullptr);
  for (std::size_t j = 1; j <= 3; ++j) {
    EXPECT_EQ(engine_ks->kselect(j), serial_ks->kselect(j)) << "rank " << j;
  }
}

// --- QuerySpec API surface -------------------------------------------------

TEST(MultiQuery, ParseQuerySpecRoundTripsEveryKind) {
  const QuerySpec topk = parse_query_spec("topk:k=5,eps=0.2,window=64");
  EXPECT_EQ(topk.kind, QueryKind::kTopK);
  EXPECT_EQ(topk.k, 5u);
  EXPECT_DOUBLE_EQ(topk.epsilon, 0.2);
  EXPECT_EQ(topk.window, 64u);

  const QuerySpec ks = parse_query_spec("kselect:k=3,proto=kselect");
  EXPECT_EQ(ks.kind, QueryKind::kKSelect);
  EXPECT_EQ(ks.protocol, "kselect");

  const QuerySpec cd = parse_query_spec("distinct:eps=0.05");
  EXPECT_EQ(cd.kind, QueryKind::kCountDistinct);
  EXPECT_DOUBLE_EQ(cd.epsilon, 0.05);

  const QuerySpec th = parse_query_spec("threshold:bound=9000,seed=4,strict=1");
  EXPECT_EQ(th.kind, QueryKind::kThreshold);
  EXPECT_EQ(th.threshold, Value{9000});
  ASSERT_TRUE(th.seed.has_value());
  EXPECT_EQ(*th.seed, 4u);
  EXPECT_TRUE(th.strict);

  // Aliases accepted by parse_query_kind keep scripts portable.
  EXPECT_EQ(parse_query_spec("count_distinct").kind, QueryKind::kCountDistinct);
  EXPECT_EQ(parse_query_spec("threshold_alert").kind, QueryKind::kThreshold);

  EXPECT_THROW(parse_query_spec("nosuchkind"), std::runtime_error);
  EXPECT_THROW(parse_query_spec("topk:k=abc"), std::runtime_error);
  EXPECT_THROW(parse_query_spec("topk:nosuchkey=1"), std::runtime_error);
}

TEST(MultiQuery, DefaultProtocolForMapsToRegisteredProtocols) {
  for (std::size_t i = 0; i < kNumQueryKinds; ++i) {
    const QueryKind kind = static_cast<QueryKind>(i);
    const std::string proto = default_protocol_for(kind);
    auto protocol = make_protocol(proto);
    ASSERT_NE(protocol, nullptr) << proto;
    if (kind == QueryKind::kTopK) {
      EXPECT_TRUE(serves_topk(*protocol)) << proto;
    } else {
      EXPECT_NE(capability_for(*protocol, kind), nullptr) << proto;
    }
  }
}

TEST(MultiQuery, EngineRejectsKindProtocolMismatch) {
  EngineConfig cfg;
  cfg.threads = 1;
  MonitoringEngine engine(cfg, make_stream(fleet_spec()));
  QuerySpec q;
  q.kind = QueryKind::kCountDistinct;
  q.protocol = "combined";  // a top-k protocol cannot serve count-distinct
  q.k = 2;
  q.epsilon = 0.1;
  EXPECT_THROW(engine.add_query(q), std::runtime_error);

  QuerySpec q2;
  q2.kind = QueryKind::kTopK;
  q2.protocol = "count_distinct";  // and vice versa
  q2.k = 2;
  q2.epsilon = 0.1;
  EXPECT_THROW(engine.add_query(q2), std::runtime_error);
}

// --- DistinctSketch: the shard-combining operator --------------------------

TEST(MultiQuery, DistinctSketchMergeIsOrderIndependent) {
  Rng rng(17);
  std::vector<Value> bands(200);
  for (auto& b : bands) b = rng.below(32);  // heavy band collisions

  // Split into 4 shard sketches, merge in two different orders.
  DistinctSketch shards[4];
  for (std::size_t i = 0; i < bands.size(); ++i) {
    shards[i % 4].add(bands[i]);
  }
  DistinctSketch forward;
  for (const auto& s : shards) forward.merge(s);
  DistinctSketch backward;
  for (std::size_t i = 4; i-- > 0;) backward.merge(shards[i]);

  DistinctSketch flat;
  for (const Value b : bands) flat.add(b);

  EXPECT_EQ(forward.distinct(), flat.distinct());
  EXPECT_EQ(backward.distinct(), flat.distinct());
  EXPECT_EQ(forward.total(), bands.size());
  EXPECT_EQ(backward.total(), bands.size());

  // remove() undoes add() exactly, band by band.
  for (const Value b : bands) flat.remove(b);
  EXPECT_EQ(flat.distinct(), 0u);
  EXPECT_EQ(flat.total(), 0u);
}

}  // namespace
}  // namespace topkmon
