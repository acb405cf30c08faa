// TopKOrder — σ(t) from the shadow vector vs. the brute-force oracle.
//
// Every update path is differentially checked against Oracle::sigma for all
// k (the scan path up to Oracle::kMaxScanK and the sorted-scratch path past
// it): bulk updates of every density, single-node updates, heavy ties, and
// the two invalidation seams the engine feeds the structure through —
// sliding-window expiry (values drop by pure eviction) and fleet membership
// changes (values freeze and snap back on rejoin).
#include <gtest/gtest.h>

#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "model/oracle.hpp"
#include "model/topk_order.hpp"
#include "model/window.hpp"
#include "util/rng.hpp"

namespace topkmon {
namespace {

/// Asserts the structure agrees with the from-scratch oracle on `values`.
void expect_matches_oracle(const TopKOrder& order, const ValueVector& values) {
  ASSERT_EQ(order.n(), values.size());
  for (const double eps : {0.0, 0.05, 0.1, 0.3, 0.7}) {
    for (std::size_t k = 1; k <= values.size(); k += 3) {
      ASSERT_EQ(order.sigma(k, eps), Oracle::sigma(values, k, eps))
          << "k=" << k << " eps=" << eps;
    }
  }
}

TEST(TopKOrder, UpdateReportsWhetherTheVectorChanged) {
  ValueVector v{5, 9, 1, 9, 3};
  TopKOrder order(v.size());
  EXPECT_FALSE(order.ready());
  EXPECT_TRUE(order.update(v)) << "the first vector is always a change";
  EXPECT_TRUE(order.ready());
  EXPECT_FALSE(order.update(v)) << "a repeated vector is no change";
  EXPECT_FALSE(order.update(v));
  v[4] = 4;
  EXPECT_TRUE(order.update(v)) << "one changed value is a change";
  EXPECT_FALSE(order.update(v));
  expect_matches_oracle(order, v);
}

TEST(TopKOrder, PointUpdateMatchesOracle) {
  Rng rng(17);
  ValueVector v(48);
  for (auto& x : v) x = rng.below(5000);
  TopKOrder order(v.size());
  order.update(v);
  for (int step = 0; step < 200; ++step) {
    // One node per step: mix extremes (jump to the head or the tail),
    // arbitrary moves, and no-ops.
    const NodeId i = static_cast<NodeId>(rng.below(v.size()));
    const std::uint64_t kind = rng.below(4);
    const Value nv = kind == 0   ? 0
                     : kind == 1 ? 1 << 20
                     : kind == 2 ? v[i]
                                 : rng.below(5000);
    v[i] = nv;
    order.update(v);
    expect_matches_oracle(order, v);
  }
}

TEST(TopKOrder, RandomWalkDifferentialAgainstFullSort) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    ValueVector v(33);
    for (auto& x : v) x = 10000 + rng.below(10000);
    TopKOrder order(v.size());
    for (int step = 0; step < 120; ++step) {
      // Random-walk a random subset; subset size sweeps from none to the
      // whole fleet.
      const std::size_t disturb = rng.below(v.size() + 1);
      for (std::size_t j = 0; j < disturb; ++j) {
        auto& x = v[rng.below(v.size())];
        const std::uint64_t delta = rng.below(2000);
        x = rng.bernoulli(0.5) && x > delta ? x - delta : x + delta;
      }
      order.update(v);
      expect_matches_oracle(order, v);
    }
  }
}

TEST(TopKOrder, SigmaIsBitIdenticalOnBoundaryEpsilons) {
  // Values engineered to sit exactly on the (1−ε)-scaled boundaries, where
  // a reformulated comparison would diverge.
  const ValueVector v{1000, 900, 899, 810, 800, 100, 0};
  TopKOrder order(v.size());
  order.update(v);
  for (const double eps : {0.0, 0.1, 0.100000000000001, 0.19, 0.2, 0.5, 0.9}) {
    for (std::size_t k = 1; k <= v.size(); ++k) {
      ASSERT_EQ(order.sigma(k, eps), Oracle::sigma(v, k, eps))
          << "k=" << k << " eps=" << eps;
    }
  }
}

TEST(TopKOrder, DifferentialAgainstFullSortAcrossRegimes) {
  for (const std::uint64_t seed : {101u, 102u}) {
    Rng rng(seed);
    ValueVector v(40);
    for (auto& x : v) x = rng.below(300);  // small range: plenty of duplicates
    TopKOrder order(v.size());
    for (int step = 0; step < 150; ++step) {
      const std::size_t disturb = rng.below(v.size() + 1);
      for (std::size_t j = 0; j < disturb; ++j) {
        v[rng.below(v.size())] = rng.below(300);
      }
      order.update(v);
      expect_matches_oracle(order, v);
    }
  }
}

TEST(TopKOrder, HeavyTieSigmaMatchesOracleAcrossRegimes) {
  // Eight distinct values over 512 nodes: v_k sits inside a long run of
  // equal values. The disturbance schedule mixes sparse, moderate, dense
  // and quiescent steps, and the k list straddles Oracle::kMaxScanK, so
  // both the scan path and the sorted-scratch path answer every regime.
  const std::size_t n = 512;
  Rng rng(31337);
  ValueVector v(n);
  for (auto& x : v) x = 1000 + 100 * rng.below(8);
  TopKOrder order(n);
  order.update(v);
  const std::size_t schedule[] = {3, 5, 40, 60, 2, 200, 30, 1, 0, 7, 64, 4, 512, 3};
  const std::size_t ks[] = {1, 2, 8, 64, Oracle::kMaxScanK, Oracle::kMaxScanK + 1,
                            300, 512};
  for (int round = 0; round < 4; ++round) {
    for (const std::size_t changed : schedule) {
      for (std::size_t j = 0; j < changed; ++j) {
        v[rng.below(n)] = 1000 + 100 * rng.below(8);
      }
      order.update(v);
      for (const std::size_t k : ks) {
        for (const double eps : {0.0, 0.05, 0.1, 0.2, 0.5}) {
          ASSERT_EQ(order.sigma(k, eps), Oracle::sigma(v, k, eps))
              << "k=" << k << " eps=" << eps << " changed=" << changed;
        }
      }
    }
  }
}

// --- invalidation seams ----------------------------------------------------

TEST(TopKOrder, TracksWindowExpiryDrops) {
  // Feed the order the windowed vector; expiry steps drop values by pure
  // eviction (no fresh observation causes the change) and must re-rank.
  const std::size_t n = 6, W = 4;
  WindowedValueModel window(n, W);
  TopKOrder order(n);
  Rng rng(23);
  ValueVector raw(n);
  std::uint64_t expirations = 0;
  for (TimeStep t = 0; t < 80; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      // Spiky: occasional large peaks that later slide out of the window.
      raw[i] = rng.bernoulli(0.15) ? 1000 + rng.below(1000) : rng.below(50);
    }
    const ValueVector& windowed = window.push(t, raw);
    order.update(windowed);
    expect_matches_oracle(order, windowed);
    expirations += window.last_expirations();
  }
  EXPECT_GT(expirations, 0u) << "workload never exercised the expiry path";
}

TEST(TopKOrder, TracksMembershipChangeFreezesAndRejoins) {
  // Feed the order the fault-effective vector: offline nodes freeze, then
  // snap back on rejoin — exactly the engine's membership-change seam.
  const std::size_t n = 8;
  auto sched = std::make_shared<FleetSchedule>(n);
  sched->add_event(3, 1);   // node 1 leaves
  sched->add_event(3, 4);   // node 4 leaves
  sched->add_event(10, 1);  // node 1 rejoins
  sched->add_event(15, 4);  // node 4 rejoins
  sched->set_delay(6, 2);   // node 6 straggles throughout
  FaultInjector injector(sched);
  TopKOrder order(n);
  Rng rng(29);
  ValueVector truth(n);
  for (auto& x : truth) x = 500 + rng.below(500);
  for (TimeStep t = 0; t < 30; ++t) {
    for (auto& x : truth) x += rng.below(40);
    const ValueVector& eff = injector.transform(t, truth);
    order.update(eff);
    expect_matches_oracle(order, eff);
    // The injector also answers which observations were stale this step —
    // the degradation map for consumers that need to know which are live.
    const bool node1_offline = t >= 3 && t < 10;
    EXPECT_EQ(injector.stale_reads(1, 2), node1_offline ? 1u : 0u) << "t=" << t;
    if (t >= 1) {
      EXPECT_EQ(injector.stale_reads(6, 7), 1u) << "t=" << t;  // straggler
      EXPECT_EQ(injector.stale_reads(0, 1), 0u) << "t=" << t;  // live node
    }
  }
  EXPECT_GT(injector.total_stale(), 0u);
}

}  // namespace
}  // namespace topkmon
