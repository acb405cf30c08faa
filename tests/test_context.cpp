#include "sim/context.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "model/oracle.hpp"
#include "protocols/generic_framework.hpp"

namespace topkmon {
namespace {

SimContext make_ctx(std::vector<Value> values, std::size_t k = 2,
                    double eps = 0.1, std::uint64_t seed = 7) {
  SimContext ctx(SimParams{values.size(), k, eps}, seed);
  ctx.advance_time(values);
  return ctx;
}

TEST(SimContext, ReportValueCostsOneMessage) {
  auto ctx = make_ctx({10, 20, 30});
  EXPECT_EQ(ctx.report_value(1), 20u);
  EXPECT_EQ(ctx.stats().total(), 1u);
  EXPECT_EQ(ctx.stats().by_kind(MessageKind::kNodeToServer), 1u);
}

TEST(SimContext, BroadcastFiltersCostsOneMessageAndSetsAll) {
  auto ctx = make_ctx({10, 20, 30});
  ctx.broadcast_filters([](const Node&) { return Filter::at_most(25.0); });
  EXPECT_EQ(ctx.stats().total(), 1u);
  EXPECT_EQ(ctx.stats().by_kind(MessageKind::kBroadcast), 1u);
  for (const auto& node : ctx.nodes()) {
    EXPECT_DOUBLE_EQ(node.filter().hi, 25.0);
  }
  EXPECT_TRUE(ctx.nodes()[2].violating());
  EXPECT_FALSE(ctx.nodes()[0].violating());
}

// The broadcast path re-derives every violation bit in one vectorized pass;
// it must agree with the scalar Filter::check on every boundary case. 23
// nodes: the AVX2 lanes and the scalar tail both see cases.
TEST(SimContext, BroadcastRederivesViolationBitsAtBoundaries) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr auto kTop = static_cast<double>(kMaxObservableValue);
  struct Case {
    Value value;
    Filter filter;
  };
  const std::vector<Case> cases = {
      {9, {10.0, 20.0}},
      {10, {10.0, 20.0}},
      {11, {10.0, 20.0}},
      {19, {10.0, 20.0}},
      {20, {10.0, 20.0}},
      {21, {10.0, 20.0}},
      {14, Filter::point(15.0)},
      {15, Filter::point(15.0)},
      {16, Filter::point(15.0)},
      {0, Filter::point(0.0)},
      {1, Filter::point(0.0)},
      {4, {-kInf, 5.0}},
      {5, {-kInf, 5.0}},
      {6, {-kInf, 5.0}},
      {6, {7.0, kInf}},
      {7, {7.0, kInf}},
      {8, {7.0, kInf}},
      {0, {-kInf, kInf}},
      {kMaxObservableValue, {-kInf, kInf}},
      {0, {-kInf, -kInf}},
      {0, {kInf, kInf}},
      {kMaxObservableValue, {0.0, kTop}},
      {kMaxObservableValue, {0.0, kTop - 1.0}},
  };
  ValueVector values;
  for (const Case& c : cases) values.push_back(c.value);
  auto ctx = make_ctx(values);

  // Bits must move both ways: set the cases, clear them, set them again.
  for (const bool set_cases : {true, false, true}) {
    ctx.broadcast_filters([&](const Node& node) {
      return set_cases ? cases[node.id()].filter : Filter::all();
    });
    std::vector<NodeId> expected;
    for (NodeId i = 0; i < cases.size(); ++i) {
      const Filter f = set_cases ? cases[i].filter : Filter::all();
      const bool bad = f.check(cases[i].value) != Violation::kNone;
      EXPECT_EQ(ctx.nodes()[i].violating(), bad) << "node " << i;
      if (bad) expected.push_back(i);
    }
    ASSERT_EQ(ctx.violating_count(), expected.size());
    if (set_cases) {
      EXPECT_EQ(expected, (std::vector<NodeId>{0, 5, 6, 8, 10, 13, 14, 19, 20, 22}));
    }
  }

  // Every sender of every violation sweep is an expected violator; silencing
  // each one as it reports drains exactly the expected set.
  std::vector<NodeId> expected;
  for (NodeId i = 0; i < cases.size(); ++i) {
    if (cases[i].filter.check(cases[i].value) != Violation::kNone) expected.push_back(i);
  }
  std::vector<NodeId> reported;
  for (ExistenceResult res = ctx.collect_violations(); res.any;
       res = ctx.collect_violations()) {
    for (const ExistenceHit& hit : res.senders) {
      EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(), hit.id))
          << "node " << hit.id << " reported without a violation";
      EXPECT_EQ(hit.value, cases[hit.id].value);
      reported.push_back(hit.id);
      ctx.set_filter_free(hit.id, Filter::all());
    }
  }
  std::sort(reported.begin(), reported.end());
  EXPECT_EQ(reported, expected);
  EXPECT_EQ(ctx.violating_count(), 0u);
}

TEST(SimContext, SetFilterUnicastCostsOneMessage) {
  auto ctx = make_ctx({10, 20, 30});
  ctx.set_filter_unicast(0, Filter::at_least(5.0));
  EXPECT_EQ(ctx.stats().total(), 1u);
  EXPECT_EQ(ctx.stats().by_kind(MessageKind::kServerToNode), 1u);
  EXPECT_DOUBLE_EQ(ctx.nodes()[0].filter().lo, 5.0);
}

TEST(SimContext, ExistenceOverPredicate) {
  auto ctx = make_ctx({10, 20, 30, 40});
  auto res = ctx.existence([](const Node& n) { return n.value() > 25; });
  EXPECT_TRUE(res.any);
  for (const auto& hit : res.senders) {
    EXPECT_GT(hit.value, 25u);
  }
  auto none = ctx.existence([](const Node& n) { return n.value() > 100; });
  EXPECT_FALSE(none.any);
}

TEST(SimContext, CollectViolationsFindsViolators) {
  auto ctx = make_ctx({10, 20, 30});
  ctx.broadcast_filters([](const Node&) { return Filter{15.0, 25.0}; });
  auto res = ctx.collect_violations();
  ASSERT_TRUE(res.any);
  for (const auto& hit : res.senders) {
    EXPECT_TRUE(hit.id == 0 || hit.id == 2);
  }
}

TEST(SimContext, SampleMaxMatchesOracle) {
  auto ctx = make_ctx({13, 99, 45, 99, 7});
  auto best = ctx.sample_max([](const Node&) { return true; });
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id, 1u);  // tie at 99 broken toward lower id
  EXPECT_EQ(best->value, 99u);
}

TEST(SimContext, SampleMaxEmptyPredicate) {
  auto ctx = make_ctx({1, 2, 3});
  auto best = ctx.sample_max([](const Node&) { return false; });
  EXPECT_FALSE(best.has_value());
}

TEST(SimContext, ProbeTopOrdered) {
  auto ctx = make_ctx({13, 99, 45, 80, 7});
  auto top = ctx.probe_top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 1u);
  EXPECT_EQ(top[1].id, 3u);
  EXPECT_EQ(top[2].id, 2u);
}

TEST(SimContext, RoundsTrackedPerStep) {
  auto ctx = make_ctx({1, 2, 3, 4, 5, 6, 7, 8});
  ctx.stats().begin_step();
  ctx.existence([](const Node&) { return true; });
  EXPECT_GE(ctx.stats().rounds_this_step(), 1u);
  EXPECT_LE(ctx.stats().rounds_this_step(), ExistenceProtocol::max_rounds(8));
}

TEST(GenericFramework, ProbeTopKPlus1Info) {
  auto ctx = make_ctx({10, 50, 40, 30, 20}, /*k=*/2);
  const auto info = probe_top_k_plus_1(ctx);
  EXPECT_EQ(info.top_ids, (OutputSet{1, 2}));
  EXPECT_EQ(info.vk, 40u);
  EXPECT_EQ(info.vk1, 30u);
  ASSERT_EQ(info.ranked.size(), 3u);
  EXPECT_EQ(info.ranked[0].id, 1u);
}

TEST(GenericFramework, EnumerateNodesFindsAllMatches) {
  auto ctx = make_ctx({10, 50, 40, 30, 20, 60, 5});
  auto found = enumerate_nodes(ctx, [](const Node& n) { return n.value() >= 30; });
  std::vector<NodeId> ids;
  for (const auto& f : found) ids.push_back(f.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<NodeId>{1, 2, 3, 5}));
}

TEST(GenericFramework, DrainViolationsReachesQuiescence) {
  auto ctx = make_ctx({10, 20, 30});
  ctx.broadcast_filters([](const Node&) { return Filter{15.0, 25.0}; });
  int handled = 0;
  drain_violations(ctx, [&](NodeId id, Value value, Violation side) {
    ++handled;
    // Resolve by widening the node's filter around its value.
    (void)side;
    ctx.set_filter_free(id, Filter{static_cast<double>(value) - 1.0,
                                   static_cast<double>(value) + 1.0});
  });
  EXPECT_EQ(handled, 2);
  for (const auto& node : ctx.nodes()) {
    EXPECT_FALSE(node.violating());
  }
}

TEST(SimContext, EnumerateCostLinearInMatches) {
  std::vector<Value> values(512, 1);
  for (int i = 0; i < 40; ++i) values[i] = 1000;
  auto ctx = make_ctx(values, 2, 0.1, 99);
  const auto before = ctx.stats().total();
  auto found = enumerate_nodes(ctx, [](const Node& n) { return n.value() == 1000; });
  EXPECT_EQ(found.size(), 40u);
  const auto cost = ctx.stats().total() - before;
  EXPECT_LE(cost, 40u + 30u);  // ~1 message per found node + slack
}

}  // namespace
}  // namespace topkmon
