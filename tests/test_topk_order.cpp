// TopKOrder — incremental order maintenance vs. the full re-sort oracle.
//
// Every mutation path is differentially checked against a from-scratch sort,
// Oracle::kth_value and Oracle::sigma: bulk updates (splice, scan and
// resume regimes), single-node updates, heavy ties, and the two
// invalidation seams the engine feeds the structure through — sliding-window
// expiry (values drop by pure eviction) and fleet membership changes (values
// freeze and snap back on rejoin). A pinned run fixes the path counters of
// the move-budget bailout.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "model/fleet_state.hpp"
#include "model/oracle.hpp"
#include "model/topk_order.hpp"
#include "model/window.hpp"
#include "util/rng.hpp"

namespace topkmon {
namespace {

/// Asserts the structure agrees with the from-scratch oracle on `values`.
void expect_matches_oracle(const TopKOrder& order, const ValueVector& values) {
  ASSERT_EQ(order.n(), values.size());
  ValueVector expect = values;
  std::sort(expect.begin(), expect.end(), std::greater<Value>());
  const auto got = order.sorted_values();
  ASSERT_TRUE(std::equal(expect.begin(), expect.end(), got.begin(), got.end()));
  for (std::size_t k = 1; k <= values.size(); ++k) {
    ASSERT_EQ(order.kth_value(k), Oracle::kth_value(values, k)) << "k=" << k;
  }
  for (const double eps : {0.0, 0.05, 0.1, 0.3, 0.7}) {
    for (std::size_t k = 1; k <= values.size(); k += 3) {
      ASSERT_EQ(order.sigma(k, eps), Oracle::sigma(values, k, eps))
          << "k=" << k << " eps=" << eps;
    }
  }
}

TEST(TopKOrder, FirstUpdateSortsFromScratch) {
  const ValueVector v{5, 9, 1, 9, 3};
  TopKOrder order(v.size());
  EXPECT_FALSE(order.ready());
  order.update(v);
  EXPECT_TRUE(order.ready());
  EXPECT_EQ(order.rebuilds(), 1u);
  expect_matches_oracle(order, v);
}

TEST(TopKOrder, QuiescentUpdateDoesNoRepairWork) {
  Rng rng(7);
  ValueVector v(64);
  for (auto& x : v) x = rng.below(1000);
  TopKOrder order(v.size());
  order.update(v);
  const std::uint64_t repairs = order.repairs();
  const std::uint64_t rebuilds = order.rebuilds();
  for (int i = 0; i < 10; ++i) {
    order.update(v);
  }
  EXPECT_EQ(order.repairs(), repairs);
  EXPECT_EQ(order.rebuilds(), rebuilds);
  expect_matches_oracle(order, v);
}

TEST(TopKOrder, SparseUpdatesTakeTheRepairPath) {
  Rng rng(11);
  ValueVector v(200);
  for (auto& x : v) x = 1000 + rng.below(100000);
  TopKOrder order(v.size());
  order.update(v);
  ASSERT_EQ(order.rebuilds(), 1u);
  for (int step = 0; step < 50; ++step) {
    // Disturb a handful of nodes (< kRebuildFraction of n).
    for (int j = 0; j < 5; ++j) {
      v[rng.below(v.size())] = 1000 + rng.below(100000);
    }
    order.update(v);
    expect_matches_oracle(order, v);
  }
  EXPECT_EQ(order.rebuilds(), 1u) << "sparse steps must not trigger rebuilds";
  EXPECT_GT(order.repairs(), 0u);
}

TEST(TopKOrder, DenseUpdatesDeferRebuildUntilRanksAreRead) {
  Rng rng(13);
  ValueVector v(100);
  for (auto& x : v) x = rng.below(1 << 20);
  TopKOrder order(v.size());
  order.update(v);
  const std::uint64_t repairs = order.repairs();
  for (auto& x : v) x = rng.below(1 << 20);  // everything changes
  order.update(v);
  // A churn-storm update parks the vector: σ comes from partition scans and
  // no sort has run yet. Reading the order then forces exactly one rebuild.
  EXPECT_EQ(order.rebuilds(), 1u) << "dense update must defer the sort";
  EXPECT_EQ(order.sigma(5, 0.1), Oracle::sigma(v, 5, 0.1))
      << "scan-mode sigma must equal the oracle";
  EXPECT_EQ(order.rebuilds(), 1u) << "sigma alone must not force the sort";
  expect_matches_oracle(order, v);
  EXPECT_EQ(order.rebuilds(), 2u) << "order accessors force one rebuild";
  EXPECT_EQ(order.repairs(), repairs) << "rebuild path must not repair";
}

TEST(TopKOrder, PointUpdateMatchesOracle) {
  Rng rng(17);
  ValueVector v(48);
  for (auto& x : v) x = rng.below(5000);
  TopKOrder order(v.size());
  order.update(v);
  for (int step = 0; step < 200; ++step) {
    // One node per step, spliced: mix extremes (jump to the head or the
    // tail), arbitrary moves, and no-ops.
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
      // Random-walk a random subset; subset size sweeps across the
      // repair/rebuild threshold.
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
  // Eight distinct values over 512 nodes: every splice lands among equal
  // values. The disturbance schedule walks splice (< n/64 changed), the
  // moderately busy scan regime (n/64..n/8), dense parks (> n/8) and the
  // resume from scan mode. The first rounds ask only k ≤ Oracle::kMaxScanK,
  // which never forces a sort, so scan-mode answers are checked as served
  // and only a quiet step re-sorts; the last round adds larger k, whose σ
  // forces the sort of a stale order.
  const std::size_t n = 512;
  Rng rng(31337);
  ValueVector v(n);
  for (auto& x : v) x = 1000 + 100 * rng.below(8);
  TopKOrder order(n);
  order.update(v);
  const std::size_t schedule[] = {3, 5, 40, 60, 2, 200, 30, 1, 0, 7, 64, 4, 512, 3};
  const std::vector<std::size_t> scan_ks = {1, 2, 8, 64, Oracle::kMaxScanK};
  const std::vector<std::size_t> all_ks = {1, 2, 8, 64, Oracle::kMaxScanK,
                                           Oracle::kMaxScanK + 1, 300, 512};
  for (int round = 0; round < 4; ++round) {
    if (round == 3) {
      EXPECT_GT(order.repairs(), 0u) << "schedule never reached the splice path";
      EXPECT_GT(order.rebuilds(), 1u) << "schedule never resumed from scan mode";
    }
    for (const std::size_t changed : schedule) {
      for (std::size_t j = 0; j < changed; ++j) {
        v[rng.below(n)] = 1000 + 100 * rng.below(8);
      }
      order.update(v);
      for (const std::size_t k : round < 3 ? scan_ks : all_ks) {
        for (const double eps : {0.0, 0.05, 0.1, 0.2, 0.5}) {
          ASSERT_EQ(order.sigma(k, eps), Oracle::sigma(v, k, eps))
              << "k=" << k << " eps=" << eps << " changed=" << changed;
        }
      }
    }
  }
}

TEST(TopKOrder, MoveBudgetBailoutCountersArePinned) {
  // Scattered medium displacements on a tie-free fleet: every value ever
  // assigned is fresh, so the order never holds a tie, not even mid-pass,
  // and a pass bails exactly when its summed rank displacement reaches the
  // 4·n move budget. Each changed node jumps 8..63 ranks, so a pass of ~60
  // splices lands near the budget and a miscounted displacement (an
  // off-by-one per splice) moves the bail. The pinned {repairs, rebuilds,
  // σ} rows fix where each pass bails, when scan mode resumes, and the σ
  // each step reports.
  constexpr std::size_t n = 512;
  Rng rng(4242);
  std::set<Value> used;
  const auto fresh_near = [&](Value base) {
    Value x;
    do {
      x = base + 1 + rng.below(1u << 16);
    } while (!used.insert(x).second);
    return x;
  };
  ValueVector v(n);
  for (auto& x : v) x = fresh_near(rng.below(Value{1} << 40));
  TopKOrder order(n);
  order.update(v);

  struct Row {
    std::uint64_t repairs, rebuilds;
    std::size_t sigma;
  };
  // Node picks per step (repeats allowed): ≤ n/64 resumes from scan mode,
  // up to n/8 splices, 300 is a dense park.
  const std::size_t schedule[] = {2, 40, 64, 60, 3, 50, 64, 64, 2,  56, 300, 3, 1,
                                  62, 0, 5, 64, 2, 48, 3, 58, 64, 1, 64, 2,   61};
  const Row pinned[] = {
      {2, 1, 139},   {38, 1, 137},  {97, 1, 138},  {97, 1, 135},  {97, 2, 135},
      {144, 2, 133}, {206, 2, 136}, {258, 2, 137}, {258, 3, 137}, {311, 3, 134},
      {311, 3, 136}, {311, 4, 136}, {312, 4, 136}, {371, 4, 134}, {371, 4, 134},
      {376, 4, 134}, {427, 4, 135}, {427, 5, 135}, {471, 5, 135}, {474, 5, 135},
      {528, 5, 134}, {590, 5, 133}, {591, 5, 133}, {653, 5, 132}, {655, 5, 132},
      {714, 5, 134},
  };
  static_assert(std::size(schedule) == std::size(pinned));
  ValueVector sorted(n);
  for (std::size_t s = 0; s < std::size(schedule); ++s) {
    sorted = v;
    std::sort(sorted.begin(), sorted.end(), std::greater<Value>());
    for (std::size_t j = 0; j < schedule[s]; ++j) {
      const NodeId i = static_cast<NodeId>(rng.below(n));
      const auto r = static_cast<std::size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), v[i], std::greater<Value>()) -
          sorted.begin());
      const std::size_t d = 8 + rng.below(56);
      const std::size_t to = rng.below(2) == 0 ? (r >= d ? r - d : 0)
                                               : std::min(n - 1, r + d);
      v[i] = fresh_near(sorted[to]);
    }
    order.update(v);
    const std::size_t sigma = order.sigma(8, 0.25);
    ASSERT_EQ(sigma, Oracle::sigma(v, 8, 0.25)) << "step " << s;
    EXPECT_EQ(order.repairs(), pinned[s].repairs) << "step " << s;
    EXPECT_EQ(order.rebuilds(), pinned[s].rebuilds) << "step " << s;
    EXPECT_EQ(sigma, pinned[s].sigma) << "step " << s;
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
  FleetState fleet(n);
  TopKOrder order(n);
  Rng rng(29);
  ValueVector truth(n);
  for (auto& x : truth) x = 500 + rng.below(500);
  for (TimeStep t = 0; t < 30; ++t) {
    for (auto& x : truth) x += rng.below(40);
    const ValueVector& eff = injector.transform(t, truth, fleet);
    order.update(eff);
    expect_matches_oracle(order, eff);
    // The injector also publishes per-node FaultFlag bits into the fleet's
    // SoA flag buffer — the step's degradation map for consumers that need
    // to know *which* observations are live.
    const auto flags = fleet.fault_flags();
    if (t >= 3 && t < 10) {
      EXPECT_EQ(flags[1], kFaultOffline | kFaultStale) << "t=" << t;
    }
    if (t >= 1) {
      EXPECT_EQ(flags[6], kFaultStale) << "t=" << t;  // straggler
      EXPECT_EQ(flags[0], kFaultNone) << "t=" << t;   // live node
    }
  }
  EXPECT_GT(injector.total_stale(), 0u);
}

}  // namespace
}  // namespace topkmon
