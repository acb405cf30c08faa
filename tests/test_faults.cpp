// Fault-model tests (src/faults):
//   * FleetSchedule generation is deterministic in the seed and matches the
//     configured shape (straggler count, churn event count, delay bounds);
//   * the FaultInjector realizes the documented semantics — identity without
//     faults, delayed reads for stragglers, frozen reads for offline nodes;
//   * with an all-zero schedule attached, every registered protocol's run is
//     bit-identical to the fault-free path (the core regression contract);
//   * loss/churn/straggler runs are deterministic, book the fault metrics,
//     and keep the strict validity contract;
//   * the engine path shares one degraded fleet across queries and stays
//     deterministic across thread counts.
#include "faults/injector.hpp"
#include "faults/registry.hpp"
#include "faults/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/engine.hpp"
#include "protocols/registry.hpp"
#include "sim/simulator.hpp"
#include "streams/registry.hpp"

namespace topkmon {
namespace {

StreamSpec fleet_spec(std::size_t n = 16, std::size_t k = 3) {
  StreamSpec spec;
  spec.kind = "random_walk";
  spec.n = n;
  spec.k = k;
  spec.epsilon = 0.1;
  spec.sigma = std::max<std::size_t>(2, n / 2);
  spec.delta = 1 << 14;
  return spec;
}

Simulator make_sim(const std::string& protocol, FleetSchedulePtr faults,
                   std::uint64_t seed = 7, std::size_t n = 16, std::size_t k = 3) {
  SimConfig cfg;
  cfg.k = k;
  cfg.epsilon = protocol == "exact_topk" ? 0.0 : 0.1;
  cfg.seed = seed;
  cfg.strict = true;
  cfg.faults = std::move(faults);
  return Simulator(cfg, make_stream(fleet_spec(n, k)), make_protocol(protocol));
}

// --- FleetSchedule ---------------------------------------------------------

TEST(FleetSchedule, GenerateIsDeterministicInSeed) {
  FaultConfig cfg;
  cfg.churn_rate = 0.05;
  cfg.straggler_fraction = 0.25;
  cfg.max_delay = 6;
  cfg.loss = 0.02;
  cfg.horizon = 400;
  cfg.seed = 123;

  const FleetSchedule a = FleetSchedule::generate(cfg, 32);
  const FleetSchedule b = FleetSchedule::generate(cfg, 32);
  EXPECT_EQ(a.trace(), b.trace());
  EXPECT_EQ(a.events(), b.events());

  cfg.seed = 124;
  const FleetSchedule c = FleetSchedule::generate(cfg, 32);
  EXPECT_NE(a.trace(), c.trace());
}

TEST(FleetSchedule, GenerateMatchesConfiguredShape) {
  FaultConfig cfg;
  cfg.churn_rate = 0.1;
  cfg.straggler_fraction = 0.5;
  cfg.max_delay = 4;
  cfg.horizon = 200;
  cfg.seed = 9;

  const std::size_t n = 20;
  const FleetSchedule sched = FleetSchedule::generate(cfg, n);
  EXPECT_EQ(sched.events().size(), 20u);  // 0.1 * 200 toggles
  std::size_t stragglers = 0;
  for (NodeId i = 0; i < n; ++i) {
    const std::size_t d = sched.delay(i);
    if (d > 0) {
      ++stragglers;
      EXPECT_LE(d, cfg.max_delay);
    }
  }
  EXPECT_EQ(stragglers, 10u);  // 0.5 * 20 distinct nodes
  EXPECT_GE(sched.max_delay(), 1u);
  EXPECT_LE(sched.max_delay(), cfg.max_delay);
  for (const FleetEvent& ev : sched.events()) {
    EXPECT_GE(ev.step, 1);
    EXPECT_LT(ev.step, cfg.horizon);
    EXPECT_LT(ev.node, n);
  }
}

TEST(FleetSchedule, OnlineFollowsToggleEvents) {
  FleetSchedule sched(4);
  EXPECT_TRUE(sched.zero_fault());
  sched.add_event(3, 1);  // node 1 leaves at step 3
  sched.add_event(6, 1);  // node 1 rejoins at step 6
  EXPECT_FALSE(sched.zero_fault());

  EXPECT_TRUE(sched.online(1, 0));
  EXPECT_TRUE(sched.online(1, 2));
  EXPECT_FALSE(sched.online(1, 3));  // events take effect at their step
  EXPECT_FALSE(sched.online(1, 5));
  EXPECT_TRUE(sched.online(1, 6));
  EXPECT_TRUE(sched.online(1, 100));
  EXPECT_TRUE(sched.online(0, 3));  // other nodes unaffected

  EXPECT_TRUE(sched.membership_changed_at(3));
  EXPECT_TRUE(sched.membership_changed_at(6));
  EXPECT_FALSE(sched.membership_changed_at(4));
  // The first toggle recorded a leave, the second a join.
  ASSERT_EQ(sched.events().size(), 2u);
  EXPECT_FALSE(sched.events()[0].join);
  EXPECT_TRUE(sched.events()[1].join);
}

TEST(FleetSchedule, ZeroConfigYieldsNoSchedule) {
  const FaultConfig cfg;  // all defaults
  EXPECT_TRUE(zero_fault(cfg));
  EXPECT_EQ(make_fleet_schedule(cfg, 8), nullptr);

  FaultConfig lossy;
  lossy.loss = 0.1;
  EXPECT_FALSE(zero_fault(lossy));
  const FleetSchedulePtr sched = make_fleet_schedule(lossy, 8);
  ASSERT_NE(sched, nullptr);
  EXPECT_DOUBLE_EQ(sched->loss(), 0.1);
}

// --- FaultInjector ---------------------------------------------------------

TEST(FaultInjector, IdentityWithAllZeroSchedule) {
  FaultInjector inj(std::make_shared<FleetSchedule>(3));
  const ValueVector v0{10, 20, 30};
  const ValueVector v1{11, 21, 31};
  EXPECT_EQ(inj.transform(0, v0), v0);
  EXPECT_EQ(inj.transform(1, v1), v1);
  EXPECT_EQ(inj.last_stale(), 0u);
  EXPECT_EQ(inj.total_stale(), 0u);
}

TEST(FaultInjector, StragglerReadsDelayedValues) {
  auto sched = std::make_shared<FleetSchedule>(2);
  sched->set_delay(1, 2);
  FaultInjector inj(sched);

  // truth for node 1 over steps 0..4: 100, 101, 102, 103, 104
  EXPECT_EQ(inj.transform(0, {0, 100})[1], 100u);  // t=0: everyone current
  EXPECT_EQ(inj.transform(1, {1, 101})[1], 100u);  // clamped to step 0
  EXPECT_EQ(inj.transform(2, {2, 102})[1], 100u);  // exactly t-2
  EXPECT_EQ(inj.transform(3, {3, 103})[1], 101u);
  const ValueVector& eff = inj.transform(4, {4, 104});
  EXPECT_EQ(eff[1], 102u);
  EXPECT_EQ(eff[0], 4u);  // non-straggler tracks the live stream
  EXPECT_EQ(inj.last_stale(), 1u);
  EXPECT_EQ(inj.total_stale(), 4u);  // one stale read per step t>=1
}

TEST(FaultInjector, OfflineNodeFreezesUntilRejoin) {
  auto sched = std::make_shared<FleetSchedule>(2);
  sched->add_event(2, 0);  // node 0 offline during steps 2..3
  sched->add_event(4, 0);
  FaultInjector inj(sched);

  EXPECT_EQ(inj.transform(0, {10, 0})[0], 10u);
  EXPECT_EQ(inj.transform(1, {11, 0})[0], 11u);
  EXPECT_EQ(inj.transform(2, {12, 0})[0], 11u);  // frozen at last effective
  EXPECT_EQ(inj.transform(3, {13, 0})[0], 11u);
  EXPECT_EQ(inj.transform(4, {14, 0})[0], 14u);  // rejoined: live again
  EXPECT_EQ(inj.total_stale(), 2u);
}

// --- zero-fault bit-identity (the core regression contract) ----------------

TEST(Faults, AllZeroScheduleIsBitIdenticalForEveryProtocol) {
  for (const std::string& protocol : protocol_names()) {
    auto baseline = make_sim(protocol, nullptr);
    auto faulted = make_sim(protocol, std::make_shared<FleetSchedule>(16));
    const RunResult rb = baseline.run(150);
    const RunResult rf = faulted.run(150);

    EXPECT_EQ(rf.messages, rb.messages) << protocol;
    EXPECT_EQ(rf.by_tag, rb.by_tag) << protocol;
    EXPECT_EQ(rf.node_to_server, rb.node_to_server) << protocol;
    EXPECT_EQ(rf.server_to_node, rb.server_to_node) << protocol;
    EXPECT_EQ(rf.broadcasts, rb.broadcasts) << protocol;
    EXPECT_EQ(rf.max_rounds_per_step, rb.max_rounds_per_step) << protocol;
    EXPECT_EQ(rf.max_sigma, rb.max_sigma) << protocol;
    EXPECT_EQ(faulted.protocol().output(), baseline.protocol().output()) << protocol;
    EXPECT_EQ(rf.messages_lost, 0u) << protocol;
    EXPECT_EQ(rf.stale_reads, 0u) << protocol;
    EXPECT_EQ(rf.recovery_rounds, 0u) << protocol;
  }
}

// --- degraded runs ---------------------------------------------------------

TEST(Faults, LossInflatesMessagesByExactlyTheDropCount) {
  auto lossy = std::make_shared<FleetSchedule>(16);
  lossy->set_loss(0.2);

  auto baseline = make_sim("combined", nullptr);
  auto faulted = make_sim("combined", lossy);
  const RunResult rb = baseline.run(200);
  const RunResult rf = faulted.run(200);

  // Retransmission model: protocol decisions are unchanged; every drop costs
  // exactly one extra message of the same kind.
  EXPECT_GT(rf.messages_lost, 0u);
  EXPECT_EQ(rf.messages, rb.messages + rf.messages_lost);
  EXPECT_EQ(faulted.protocol().output(), baseline.protocol().output());

  auto again = make_sim("combined", lossy);
  EXPECT_EQ(again.run(200).messages_lost, rf.messages_lost);  // same seed
}

TEST(Faults, MembershipChangesFireRecoveryRounds) {
  auto churny = std::make_shared<FleetSchedule>(16);
  churny->add_event(5, 3);
  churny->add_event(9, 3);
  churny->add_event(9, 7);  // two toggles in one step = one recovery round

  auto sim = make_sim("combined", churny);
  const RunResult r = sim.run(50);
  EXPECT_EQ(r.recovery_rounds, 2u);
  EXPECT_GT(r.stale_reads, 0u);  // offline nodes read stale while away
}

TEST(Faults, StragglersKeepStrictValidity) {
  FaultConfig cfg;
  cfg.straggler_fraction = 0.25;
  cfg.max_delay = 5;
  cfg.seed = 11;
  const FleetSchedulePtr sched = make_fleet_schedule(cfg, 16);
  ASSERT_NE(sched, nullptr);

  for (const std::string& protocol : protocol_names()) {
    auto sim = make_sim(protocol, sched);  // strict=true throws on invalidity
    const RunResult r = sim.run(120);
    EXPECT_EQ(r.steps, 120u) << protocol;
    EXPECT_GT(r.stale_reads, 0u) << protocol;
  }
}

TEST(Faults, FlakyPresetRunIsDeterministic) {
  FaultConfig cfg = fault_preset("flaky");
  cfg.horizon = 300;
  cfg.seed = 21;
  const FleetSchedulePtr sched = make_fleet_schedule(cfg, 16);
  ASSERT_NE(sched, nullptr);

  auto a = make_sim("combined", sched);
  auto b = make_sim("combined", sched);
  const RunResult ra = a.run(300);
  const RunResult rb = b.run(300);
  EXPECT_EQ(ra.messages, rb.messages);
  EXPECT_EQ(ra.messages_lost, rb.messages_lost);
  EXPECT_EQ(ra.stale_reads, rb.stale_reads);
  EXPECT_EQ(ra.recovery_rounds, rb.recovery_rounds);
  EXPECT_EQ(a.protocol().output(), b.protocol().output());
}

// --- presets ---------------------------------------------------------------

TEST(FaultPresets, AllRegisteredNamesResolve) {
  for (const std::string& name : fault_preset_names()) {
    const FaultConfig cfg = fault_preset(name);
    if (name == "none") {
      EXPECT_TRUE(zero_fault(cfg));
    } else {
      EXPECT_FALSE(zero_fault(cfg)) << name;
    }
  }
  EXPECT_THROW(fault_preset("no_such_preset"), std::runtime_error);
}

// --- engine path -----------------------------------------------------------

TEST(EngineFaults, AllZeroScheduleIsBitIdentical) {
  auto run_engine = [](FleetSchedulePtr faults) {
    EngineConfig cfg;
    cfg.threads = 1;
    cfg.seed = 42;
    cfg.faults = std::move(faults);
    MonitoringEngine engine(cfg, make_stream(fleet_spec(24, 4)));
    for (std::size_t q = 0; q < 4; ++q) {
      QuerySpec spec;
      spec.protocol = q % 2 == 0 ? "combined" : "topk_protocol";
      spec.k = 4;
      spec.epsilon = 0.1;
      spec.strict = true;
      engine.add_query(spec);
    }
    return engine.run(100);
  };

  const EngineStats base = run_engine(nullptr);
  const EngineStats faulted = run_engine(std::make_shared<FleetSchedule>(24));
  ASSERT_EQ(base.queries.size(), faulted.queries.size());
  for (std::size_t q = 0; q < base.queries.size(); ++q) {
    EXPECT_EQ(faulted.queries[q].run.messages, base.queries[q].run.messages);
    EXPECT_EQ(faulted.queries[q].output, base.queries[q].output);
  }
  EXPECT_EQ(faulted.messages, base.messages);
  EXPECT_EQ(faulted.messages_lost, 0u);
  EXPECT_EQ(faulted.stale_reads, 0u);
  EXPECT_EQ(faulted.recovery_rounds, 0u);
}

// Queries of one engine, with probe sharing off and the seed a standalone
// Simulator would use, must each book exactly what that Simulator books on the
// same degraded fleet: the engine injects the schedule once per step, the
// standalone run once per fleet, and both must script the identical faults.
TEST(EngineFaults, QueriesMatchStandaloneSimulatorsUnderFaults) {
  FaultConfig fcfg = fault_preset("flaky");
  fcfg.horizon = 120;
  fcfg.seed = 13;
  const FleetSchedulePtr sched = make_fleet_schedule(fcfg, 16);
  ASSERT_NE(sched, nullptr);
  constexpr std::uint64_t kSeed = 31;
  const std::vector<std::string> protocols = {"combined", "topk_protocol",
                                              "half_error"};

  EngineConfig ecfg;
  ecfg.threads = 2;
  ecfg.seed = kSeed;
  ecfg.share_probes = false;
  ecfg.faults = sched;
  MonitoringEngine engine(ecfg, make_stream(fleet_spec(16, 3)));
  for (const std::string& protocol : protocols) {
    QuerySpec spec;
    spec.protocol = protocol;
    spec.k = 3;
    spec.epsilon = 0.1;
    spec.strict = true;
    spec.seed = kSeed;
    engine.add_query(spec);
  }
  const EngineStats stats = engine.run(120);
  EXPECT_GT(stats.stale_reads, 0u);
  EXPECT_GT(stats.messages_lost, 0u);

  for (std::size_t q = 0; q < protocols.size(); ++q) {
    auto solo = make_sim(protocols[q], sched, kSeed, 16, 3);
    const RunResult r = solo.run(120);
    const RunResult& e = stats.queries[q].run;
    EXPECT_EQ(e.messages, r.messages) << protocols[q];
    EXPECT_EQ(e.by_tag, r.by_tag) << protocols[q];
    EXPECT_EQ(e.messages_lost, r.messages_lost) << protocols[q];
    EXPECT_EQ(e.recovery_rounds, r.recovery_rounds) << protocols[q];
    // Stale reads are a fleet-level count: the engine's one injector books
    // them once, and each standalone fleet books the same total.
    EXPECT_EQ(stats.stale_reads, r.stale_reads) << protocols[q];
    EXPECT_EQ(engine.output(static_cast<QueryHandle>(q)), solo.protocol().output())
        << protocols[q];
  }
}

TEST(EngineFaults, DegradedFleetIsDeterministicAcrossThreadCounts) {
  FaultConfig fcfg = fault_preset("flaky");
  fcfg.horizon = 200;
  fcfg.seed = 5;
  const FleetSchedulePtr sched = make_fleet_schedule(fcfg, 24);
  ASSERT_NE(sched, nullptr);

  auto run_engine = [&](std::size_t threads) {
    EngineConfig cfg;
    cfg.threads = threads;
    cfg.seed = 42;
    cfg.faults = sched;
    MonitoringEngine engine(cfg, make_stream(fleet_spec(24, 4)));
    for (std::size_t q = 0; q < 8; ++q) {
      QuerySpec spec;
      spec.k = 4;
      spec.epsilon = 0.1;
      engine.add_query(spec);
    }
    return engine.run(200);
  };

  const EngineStats one = run_engine(1);
  const EngineStats four = run_engine(4);
  ASSERT_EQ(one.queries.size(), four.queries.size());
  for (std::size_t q = 0; q < one.queries.size(); ++q) {
    EXPECT_EQ(one.queries[q].run.messages, four.queries[q].run.messages);
    EXPECT_EQ(one.queries[q].run.messages_lost, four.queries[q].run.messages_lost);
    EXPECT_EQ(one.queries[q].output, four.queries[q].output);
  }
  EXPECT_EQ(one.messages_lost, four.messages_lost);
  EXPECT_EQ(one.stale_reads, four.stale_reads);
  EXPECT_GT(one.stale_reads, 0u);
  EXPECT_GT(one.messages_lost, 0u);
}

TEST(EngineFaults, PerQueryConfigReportsRealWindowAndSchedule) {
  FaultConfig fcfg = fault_preset("flaky");
  fcfg.horizon = 80;
  fcfg.seed = 3;
  const FleetSchedulePtr sched = make_fleet_schedule(fcfg, 24);
  ASSERT_NE(sched, nullptr);

  EngineConfig cfg;
  cfg.threads = 2;
  cfg.seed = 11;
  cfg.faults = sched;
  MonitoringEngine engine(cfg, make_stream(fleet_spec(24, 4)));
  std::vector<QuerySpec> specs;
  for (const std::size_t window : {kInfiniteWindow, std::size_t{4}, std::size_t{16}}) {
    QuerySpec spec;
    spec.k = 3 + window % 5;
    spec.epsilon = window == 4 ? 0.2 : 0.1;
    spec.window = window;
    specs.push_back(spec);
    engine.add_query(spec);
  }
  engine.run(80);

  for (QueryHandle h = 0; h < specs.size(); ++h) {
    const SimConfig& qc = engine.query_sim(h).config();
    EXPECT_EQ(qc.window, specs[h].window) << "query " << h;
    EXPECT_EQ(qc.faults, sched) << "query " << h;
    EXPECT_EQ(qc.k, specs[h].k) << "query " << h;
    EXPECT_EQ(qc.epsilon, specs[h].epsilon) << "query " << h;
  }
}

}  // namespace
}  // namespace topkmon
