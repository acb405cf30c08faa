// White-box invariant checks on DenseComponent, asserted after EVERY
// simulated step while the combined monitor runs in dense mode:
//   I1  roles partition the nodes; v1/v3 counters match.
//   I2  S1/S2 flags only on V2 nodes; no S1∩S2 node outside an active sub.
//   I3  the interval L stays inside the grid of [(1−ε)z, z]; the sub
//       interval stays inside [L.lo, ⌊ℓ_r⌋].
//   I4  the output contains every V1 node and no V3 node, and has size k.
//   I5  V1 members were certified clearly-larger at entry: their *entry*
//       certificates exceed z; V3 analogously below (1−ε)z — checked
//       indirectly: a V1 node's filter keeps lo ≥ ℓ_r, a V3 node's filter
//       keeps hi ≤ u_r-like bounds.
// And, after EVERY handled violation, the knowledge counters kept over the
// member lists equal a rescan of all n nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "protocols/combined.hpp"
#include "protocols/generic_framework.hpp"
#include "sim/simulator.hpp"
#include "streams/oscillating.hpp"
#include "streams/trace_file.hpp"

namespace topkmon {
namespace {

void check_invariants(const CombinedMonitor& proto, const SimContext& ctx) {
  if (proto.mode() != CombinedMonitor::Mode::kDense) return;
  const DenseComponent& d = proto.dense();
  const std::size_t n = ctx.n();
  const std::size_t k = ctx.k();

  // I1: partition + counters.
  std::size_t v1 = 0, v2 = 0, v3 = 0;
  for (NodeId i = 0; i < n; ++i) {
    switch (d.role(i)) {
      case DenseComponent::Role::kV1: ++v1; break;
      case DenseComponent::Role::kV2: ++v2; break;
      case DenseComponent::Role::kV3: ++v3; break;
    }
  }
  EXPECT_EQ(v1 + v2 + v3, n);
  EXPECT_EQ(v1, d.v1_count());
  EXPECT_EQ(v3, d.v3_count());

  // I2: S-flags only on V2; S1∩S2 only under an active sub.
  for (NodeId i = 0; i < n; ++i) {
    if (d.role(i) != DenseComponent::Role::kV2) {
      EXPECT_FALSE(d.in_s1(i)) << "node " << i;
      EXPECT_FALSE(d.in_s2(i)) << "node " << i;
    }
    if (d.in_s1(i) && d.in_s2(i)) {
      EXPECT_TRUE(d.sub_active()) << "S1∩S2 node " << i << " without sub";
    }
  }

  // I3: interval geometry.
  if (!d.interval_empty()) {
    const double z = d.pivot_z();
    EXPECT_GE(static_cast<double>(d.interval_lo()),
              std::floor((1.0 - ctx.epsilon()) * z));
    EXPECT_LE(static_cast<double>(d.interval_hi()), z + 1e-9);
    if (d.sub_active()) {
      EXPECT_GE(d.sub_interval_lo(), d.interval_lo());
      EXPECT_LE(d.sub_interval_hi(), d.interval_hi());
    }
  }

  // I4: output composition.
  const OutputSet& out = d.output();
  EXPECT_EQ(out.size(), k);
  std::vector<bool> in_out(n, false);
  for (NodeId id : out) in_out[id] = true;
  for (NodeId i = 0; i < n; ++i) {
    if (d.role(i) == DenseComponent::Role::kV1) {
      EXPECT_TRUE(in_out[i]) << "V1 node " << i << " missing from output";
    }
    if (d.role(i) == DenseComponent::Role::kV3) {
      EXPECT_FALSE(in_out[i]) << "V3 node " << i << " in output";
    }
  }

  // I5: V1/V3 filter posture.
  for (NodeId i = 0; i < n; ++i) {
    const Filter& f = ctx.nodes()[i].filter();
    if (d.role(i) == DenseComponent::Role::kV1) {
      EXPECT_GT(f.lo, 0.0) << "V1 node " << i << " must have a lower bound";
      EXPECT_TRUE(std::isinf(f.hi));
    }
    if (d.role(i) == DenseComponent::Role::kV3) {
      EXPECT_DOUBLE_EQ(f.lo, 0.0);
      EXPECT_TRUE(std::isfinite(f.hi));
    }
  }
}

class DenseInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DenseInvariants, HoldAtEveryStep) {
  OscillatingConfig osc;
  osc.n = 20;
  osc.k = 4;
  osc.epsilon = 0.15;
  osc.sigma = 10;
  osc.drift = 0.03;  // keep the interval game running
  auto protocol = std::make_unique<CombinedMonitor>();
  auto* proto = protocol.get();
  SimConfig cfg;
  cfg.k = 4;
  cfg.epsilon = 0.15;
  cfg.seed = GetParam();
  cfg.strict = true;
  Simulator sim(cfg, std::make_unique<OscillatingStream>(osc), std::move(protocol));
  std::size_t dense_steps = 0;
  for (int t = 0; t < 400; ++t) {
    sim.step();
    if (proto->mode() == CombinedMonitor::Mode::kDense) ++dense_steps;
    check_invariants(*proto, sim.context());
    if (::testing::Test::HasFailure()) {
      FAIL() << "invariant broken at t=" << t << " (seed " << GetParam() << ")";
    }
  }
  EXPECT_GT(dense_steps, 100u) << "the workload must actually exercise dense mode";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseInvariants,
                         ::testing::Values(1, 7, 42, 1337, 99991));

TEST(DenseInvariants, SubIntervalNestsUnderFlipFlop) {
  // Drive the scripted S1∩S2 path and verify nesting while the sub runs.
  std::vector<ValueVector> rows;
  rows.push_back({100, 100, 100, 98, 9});
  rows.push_back({100, 100, 108, 98, 9});
  rows.push_back({100, 100, 91, 98, 9});
  for (int t = 0; t < 10; ++t) rows.push_back({100, 100, 91, 98, 9});
  auto protocol = std::make_unique<CombinedMonitor>();
  auto* proto = protocol.get();
  SimConfig cfg;
  cfg.k = 2;
  cfg.epsilon = 0.1;
  cfg.seed = 5;
  cfg.strict = true;
  Simulator sim(cfg, std::make_unique<TraceFileStream>(rows), std::move(protocol));
  for (std::size_t t = 0; t < rows.size(); ++t) {
    sim.step();
    check_invariants(*proto, sim.context());
  }
}


// ---- list-based counters vs a full rescan ---------------------------------

/// The [D1] counters recomputed from the per-node state of all n nodes.
void expect_counters_match_rescan(const DenseComponent& d, std::size_t n) {
  std::size_t above = 0, below = 0, sub_above = 0, sub_below = 0;
  for (NodeId i = 0; i < n; ++i) {
    const double r = d.last_report(i);
    switch (d.role(i)) {
      case DenseComponent::Role::kV1:
        ++above;
        ++sub_above;
        break;
      case DenseComponent::Role::kV3:
        ++below;
        ++sub_below;
        break;
      case DenseComponent::Role::kV2:
        if (d.in_s1(i) && r > d.ur()) ++above;
        if (d.in_s2(i) && r >= 0.0 && r < d.lr()) ++below;
        if (d.in_sp1(i) && r > d.sub_ur()) ++sub_above;
        if (d.in_sp2(i) && r >= 0.0 && r < d.lr()) ++sub_below;
        break;
    }
  }
  EXPECT_EQ(d.count_above_ur(), above);
  EXPECT_EQ(d.count_below_lr(), below);
  EXPECT_EQ(d.sub_count_above(), sub_above);
  EXPECT_EQ(d.sub_count_below(), sub_below);
}

/// CombinedMonitor's mode switching, with the dense counters checked against
/// a rescan after every violation the dense component handles.
class RescanCheckedMonitor final : public MonitoringProtocol {
 public:
  void start(SimContext& ctx) override {
    restart(ctx);
    on_step(ctx);
  }

  void on_step(SimContext& ctx) override {
    drain_violations(ctx, [&](NodeId id, Value value, Violation side) {
      if (!dense_mode_) {
        if (topk_.handle_violation(ctx, id, value, side)) restart(ctx);
        return;
      }
      const auto outcome = dense_.handle_violation(ctx, id, value, side);
      ++checked_;
      if (dense_.sub_active()) ++checked_in_sub_;
      expect_counters_match_rescan(dense_, ctx.n());
      if (outcome != DenseComponent::Outcome::kRunning) restart(ctx);
    });
  }

  const OutputSet& output() const override {
    return dense_mode_ ? dense_.output() : topk_.output();
  }
  std::string_view name() const override { return "rescan_checked_combined"; }

  std::uint64_t checked() const { return checked_; }
  std::uint64_t checked_in_sub() const { return checked_in_sub_; }

 private:
  void restart(SimContext& ctx) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const ProbeInfo info = probe_top_k_plus_1(ctx);
      dense_mode_ = static_cast<double>(info.vk1) >=
                    (1.0 - ctx.epsilon()) * static_cast<double>(info.vk);
      if (!dense_mode_) {
        topk_.begin_from_probe(ctx, info);
        return;
      }
      const auto outcome = dense_.begin(ctx, info);
      expect_counters_match_rescan(dense_, ctx.n());
      if (outcome == DenseComponent::Outcome::kRunning) return;
    }
    FAIL() << "could not (re)initialize";
  }

  bool dense_mode_ = false;
  TopKComponent topk_;
  DenseComponent dense_;
  std::uint64_t checked_ = 0;
  std::uint64_t checked_in_sub_ = 0;
};

TEST_P(DenseInvariants, ListCountersMatchRescanAfterEveryViolation) {
  OscillatingConfig osc;
  osc.n = 64;
  osc.k = 4;
  osc.epsilon = 0.15;
  osc.sigma = 24;
  osc.drift = 0.03;
  auto protocol = std::make_unique<RescanCheckedMonitor>();
  auto* proto = protocol.get();
  SimConfig cfg;
  cfg.k = 4;
  cfg.epsilon = 0.15;
  cfg.seed = GetParam();
  cfg.strict = true;
  Simulator sim(cfg, std::make_unique<OscillatingStream>(osc), std::move(protocol));
  for (int t = 0; t < 400; ++t) {
    sim.step();
    if (::testing::Test::HasFailure()) {
      FAIL() << "counter mismatch at t=" << t << " (seed " << GetParam() << ")";
    }
  }
  EXPECT_GT(proto->checked(), 100u) << "the workload must drive dense violations";
  EXPECT_GT(proto->checked_in_sub(), 0u) << "the workload must reach the subprotocol";
}

}  // namespace
}  // namespace topkmon
