#include "protocols/existence.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "protocols/generic_framework.hpp"
#include "sim/context.hpp"
#include "util/summary.hpp"

namespace topkmon {
namespace {

TEST(Existence, AlwaysCorrectOnAllZeros) {
  Rng rng(1);
  for (std::size_t n : {1u, 2u, 5u, 64u, 1000u}) {
    std::vector<bool> bits(n, false);
    const auto res = ExistenceProtocol::run(bits, rng);
    EXPECT_FALSE(res.any) << "n=" << n;
    EXPECT_EQ(res.messages, 0u);
    EXPECT_TRUE(res.senders.empty());
  }
}

TEST(Existence, AlwaysCorrectWithOnes) {
  Rng rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<bool> bits(100, false);
    const std::size_t ones = 1 + rng.below(100);
    for (std::size_t i = 0; i < ones; ++i) bits[rng.below(100)] = true;
    const auto res = ExistenceProtocol::run(bits, rng);
    EXPECT_TRUE(res.any);
    EXPECT_GE(res.messages, 1u);
    for (const auto& hit : res.senders) {
      EXPECT_TRUE(bits[hit.id]) << "sender must hold a 1";
    }
  }
}

TEST(Existence, RoundBudgetRespected) {
  Rng rng(3);
  for (std::size_t n : {1u, 2u, 3u, 4u, 7u, 8u, 9u, 1000u, 1024u}) {
    std::vector<bool> bits(n, true);
    const auto res = ExistenceProtocol::run(bits, rng);
    EXPECT_LE(res.rounds, ExistenceProtocol::max_rounds(n)) << "n=" << n;
  }
}

TEST(Existence, MaxRoundsFormula) {
  EXPECT_EQ(ExistenceProtocol::max_rounds(1), 1u);
  EXPECT_EQ(ExistenceProtocol::max_rounds(2), 2u);
  EXPECT_EQ(ExistenceProtocol::max_rounds(1024), 11u);
  EXPECT_EQ(ExistenceProtocol::max_rounds(1000), 11u);
}

TEST(Existence, SendersCarryValues) {
  Rng rng(4);
  const std::size_t n = 32;
  const auto res = ExistenceProtocol::run(
      n, [](NodeId i) { return i % 2 == 0; }, [](NodeId i) { return Value{i} * 10; },
      rng);
  ASSERT_TRUE(res.any);
  for (const auto& hit : res.senders) {
    EXPECT_EQ(hit.value, Value{hit.id} * 10);
    EXPECT_EQ(hit.id % 2, 0u);
  }
}

// Lemma 3.1: expected messages bounded by a constant (paper derives <= 6)
// regardless of n and of the number b of ones.
struct ExistenceCase {
  std::size_t n;
  std::size_t b;
};

class ExistenceExpectation : public ::testing::TestWithParam<ExistenceCase> {};

TEST_P(ExistenceExpectation, ExpectedMessagesConstant) {
  const auto [n, b] = GetParam();
  Rng rng(1000 + n * 31 + b);
  StreamingMoments messages;
  std::vector<bool> bits(n, false);
  for (std::size_t i = 0; i < b; ++i) bits[i] = true;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    const auto res = ExistenceProtocol::run(bits, rng);
    ASSERT_EQ(res.any, b > 0);
    messages.add(static_cast<double>(res.messages));
  }
  EXPECT_LE(messages.mean(), 6.0) << "n=" << n << " b=" << b;
  if (b > 0) {
    EXPECT_GE(messages.mean(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExistenceExpectation,
    ::testing::Values(ExistenceCase{16, 1}, ExistenceCase{16, 8},
                      ExistenceCase{16, 16}, ExistenceCase{256, 1},
                      ExistenceCase{256, 16}, ExistenceCase{256, 128},
                      ExistenceCase{256, 256}, ExistenceCase{4096, 1},
                      ExistenceCase{4096, 64}, ExistenceCase{4096, 2048},
                      ExistenceCase{4096, 4096}, ExistenceCase{64, 0}));

TEST(Existence, SingleNode) {
  Rng rng(5);
  std::vector<bool> one{true};
  const auto res = ExistenceProtocol::run(one, rng);
  EXPECT_TRUE(res.any);
  EXPECT_EQ(res.messages, 1u);
  std::vector<bool> zero{false};
  const auto res0 = ExistenceProtocol::run(zero, rng);
  EXPECT_FALSE(res0.any);
}


// ---- draw-for-draw equivalence with the predicate-per-run implementation --
//
// The active-list core must reproduce, message for message and draw for
// draw, the implementation it replaced: EXISTENCE evaluating a
// std::function bit for every node in every run, sample_max re-running it
// over the whole fleet after each improvement, enumerate_nodes restarting a
// fleet-wide EXISTENCE per hit, probe_top repeating sample_max with an
// exclusion mask. That implementation is kept below, test-local, as the
// reference.
namespace reference {

ExistenceResult existence(std::size_t n, const std::function<bool(NodeId)>& bit,
                          const std::function<Value(NodeId)>& value, Rng& rng) {
  ExistenceResult res;
  std::vector<NodeId> active;
  for (NodeId i = 0; i < n; ++i) {
    if (bit(i)) active.push_back(i);
  }
  const std::uint64_t last_round = ExistenceProtocol::max_rounds(n) - 1;
  for (std::uint64_t r = 0; r <= last_round; ++r) {
    ++res.rounds;
    if (active.empty()) continue;
    const double p = std::min(
        1.0, static_cast<double>(std::uint64_t{1} << std::min<std::uint64_t>(r, 63)) /
                 static_cast<double>(n));
    for (NodeId i : active) {
      if (rng.bernoulli(p)) res.senders.push_back({i, value(i)});
    }
    if (!res.senders.empty()) {
      res.any = true;
      res.messages = res.senders.size();
      return res;
    }
  }
  return res;
}

std::optional<ProbeResult> sample_max(
    std::size_t n,
    const std::function<bool(NodeId, const std::optional<ProbeResult>&)>& candidate,
    const std::function<Value(NodeId)>& value, CommStats& stats, Rng& rng) {
  std::optional<ProbeResult> best;
  for (;;) {
    auto res = existence(n, [&](NodeId i) { return candidate(i, best); }, value, rng);
    stats.count(MessageKind::kNodeToServer, MessageTag::kProbe, res.messages);
    stats.add_rounds(res.rounds);
    if (!res.any) break;
    for (const auto& hit : res.senders) {
      if (!best || ranks_above(hit.value, hit.id, best->value, best->id)) {
        best = ProbeResult{hit.id, hit.value};
      }
    }
    stats.count(MessageKind::kBroadcast, MessageTag::kProbe);
  }
  return best;
}

std::vector<ProbeResult> probe_top(const ValueVector& values, std::size_t m,
                                   CommStats& stats, Rng& rng) {
  std::vector<ProbeResult> out;
  std::vector<bool> excluded(values.size(), false);
  for (std::size_t j = 0; j < m; ++j) {
    auto r = sample_max(
        values.size(),
        [&](NodeId i, const std::optional<ProbeResult>& best) {
          if (excluded[i]) return false;
          if (!best) return true;
          return ranks_above(values[i], i, best->value, best->id);
        },
        [&](NodeId i) { return values[i]; }, stats, rng);
    if (!r) break;
    excluded[r->id] = true;
    out.push_back(*r);
  }
  return out;
}

std::vector<ProbeResult> enumerate(const ValueVector& values,
                                   const std::function<bool(NodeId)>& pred,
                                   CommStats& stats, Rng& rng) {
  std::vector<ProbeResult> out;
  std::vector<bool> seen(values.size(), false);
  for (;;) {
    auto res = existence(
        values.size(), [&](NodeId i) { return !seen[i] && pred(i); },
        [&](NodeId i) { return values[i]; }, rng);
    stats.count(MessageKind::kNodeToServer, MessageTag::kProbe, res.messages);
    stats.add_rounds(res.rounds);
    if (!res.any) break;
    for (const auto& hit : res.senders) {
      if (!seen[hit.id]) {
        seen[hit.id] = true;
        out.push_back({hit.id, hit.value});
      }
    }
  }
  return out;
}

}  // namespace reference

void expect_same_stats(const CommStats& got, const CommStats& want) {
  EXPECT_EQ(got.total(), want.total());
  EXPECT_EQ(got.total_rounds(), want.total_rounds());
  for (std::size_t t = 0; t < kNumMessageTags; ++t) {
    const auto tag = static_cast<MessageTag>(t);
    EXPECT_EQ(got.by_tag(tag), want.by_tag(tag)) << to_string(tag);
  }
  for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
    EXPECT_EQ(got.by_kind(static_cast<MessageKind>(k)),
              want.by_kind(static_cast<MessageKind>(k)));
  }
}

void expect_same_probes(const std::vector<ProbeResult>& got,
                        const std::vector<ProbeResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].id, want[j].id) << "entry " << j;
    EXPECT_EQ(got[j].value, want[j].value) << "entry " << j;
  }
}

struct Pattern {
  std::size_t n;
  double density;    ///< fraction of nodes whose bit / predicate is 1
  Value value_span;  ///< values in [0, value_span): small spans force ties
};

/// Every (n, density, span) combination the equivalence tests sweep.
std::vector<Pattern> patterns() {
  std::vector<Pattern> out;
  for (const std::size_t n : {1u, 2u, 37u, 1024u, 16384u}) {
    for (const double density : {0.0, 0.01, 0.3, 1.0}) {
      for (const Value span : {Value{4}, Value{1} << 40}) {
        out.push_back({n, density, span});
      }
    }
  }
  return out;
}

std::string describe(const Pattern& p) {
  return "n=" + std::to_string(p.n) + " density=" + std::to_string(p.density) +
         " span=" + std::to_string(p.value_span);
}

ValueVector pattern_values(const Pattern& p, Rng& rng) {
  ValueVector values(p.n);
  for (auto& v : values) v = rng.below(p.value_span);
  return values;
}

std::vector<bool> pattern_bits(const Pattern& p, Rng& rng) {
  std::vector<bool> bits(p.n);
  for (std::size_t i = 0; i < p.n; ++i) bits[i] = rng.uniform01() < p.density;
  return bits;
}

SimContext pattern_context(const ValueVector& values, std::uint64_t seed) {
  SimContext ctx(SimParams{values.size(), 1, 0.1}, seed);
  ctx.advance_time(values);
  return ctx;
}

TEST(ExistenceEquivalence, RunMatchesReferenceDrawForDraw) {
  Rng gen(11);
  for (const Pattern& p : patterns()) {
    SCOPED_TRACE(describe(p));
    const ValueVector values = pattern_values(p, gen);
    for (int rep = 0; rep < 8; ++rep) {
      const std::vector<bool> bits = pattern_bits(p, gen);
      std::vector<NodeId> active;
      for (NodeId i = 0; i < p.n; ++i) {
        if (bits[i]) active.push_back(i);
      }
      Rng rng(100 + rep);
      Rng ref_rng = rng;
      const auto got = ExistenceProtocol::run_active(
          p.n, active, [&](NodeId i) { return values[i]; }, rng);
      const auto want = reference::existence(
          p.n, [&](NodeId i) { return static_cast<bool>(bits[i]); },
          [&](NodeId i) { return values[i]; }, ref_rng);
      EXPECT_EQ(got.any, want.any);
      EXPECT_EQ(got.messages, want.messages);
      EXPECT_EQ(got.rounds, want.rounds);
      ASSERT_EQ(got.senders.size(), want.senders.size());
      for (std::size_t j = 0; j < got.senders.size(); ++j) {
        EXPECT_EQ(got.senders[j].id, want.senders[j].id);
        EXPECT_EQ(got.senders[j].value, want.senders[j].value);
      }
      EXPECT_EQ(rng.state(), ref_rng.state());
    }
  }
}

TEST(ExistenceEquivalence, SampleMaxMatchesReferenceDrawForDraw) {
  Rng gen(12);
  for (const Pattern& p : patterns()) {
    SCOPED_TRACE(describe(p));
    const ValueVector values = pattern_values(p, gen);
    const std::vector<bool> bits = pattern_bits(p, gen);
    auto ctx = pattern_context(values, 200 + p.n);
    Rng ref_rng = ctx.rng();
    CommStats ref_stats;
    const auto got = ctx.sample_max([&](const Node& node) { return bits[node.id()]; });
    const auto want = reference::sample_max(
        p.n,
        [&](NodeId i, const std::optional<ProbeResult>& best) {
          if (!bits[i]) return false;
          if (!best) return true;
          return ranks_above(values[i], i, best->value, best->id);
        },
        [&](NodeId i) { return values[i]; }, ref_stats, ref_rng);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got) {
      EXPECT_EQ(got->id, want->id);
      EXPECT_EQ(got->value, want->value);
    }
    expect_same_stats(ctx.stats(), ref_stats);
    EXPECT_EQ(ctx.rng().state(), ref_rng.state());
  }
}

TEST(ExistenceEquivalence, ProbeTopMatchesReferenceDrawForDraw) {
  Rng gen(13);
  for (const Pattern& p : patterns()) {
    if (p.density != 1.0) continue;  // probe_top has no predicate
    SCOPED_TRACE(describe(p));
    const ValueVector values = pattern_values(p, gen);
    for (const std::size_t m : {std::size_t{1}, std::size_t{9}, p.n + 1}) {
      if (p.n > 1024 && m > 9) continue;  // the reference is O(n·m) per rank
      auto ctx = pattern_context(values, 300 + m);
      Rng ref_rng = ctx.rng();
      CommStats ref_stats;
      expect_same_probes(ctx.probe_top(m),
                         reference::probe_top(values, m, ref_stats, ref_rng));
      expect_same_stats(ctx.stats(), ref_stats);
      EXPECT_EQ(ctx.rng().state(), ref_rng.state());
    }
  }
}

TEST(ExistenceEquivalence, EnumerateNodesMatchesReferenceDrawForDraw) {
  Rng gen(14);
  for (const Pattern& p : patterns()) {
    // The reference restarts a fleet-wide run per hit: O(n·hits).
    if (p.n * p.density > 400) continue;
    SCOPED_TRACE(describe(p));
    const ValueVector values = pattern_values(p, gen);
    const std::vector<bool> bits = pattern_bits(p, gen);
    auto ctx = pattern_context(values, 400 + p.n);
    Rng ref_rng = ctx.rng();
    CommStats ref_stats;
    const auto got =
        enumerate_nodes(ctx, [&](const Node& node) { return bits[node.id()]; });
    const auto want = reference::enumerate(
        values, [&](NodeId i) { return static_cast<bool>(bits[i]); }, ref_stats, ref_rng);
    expect_same_probes(got, want);
    expect_same_stats(ctx.stats(), ref_stats);
    EXPECT_EQ(ctx.rng().state(), ref_rng.state());
  }
}

TEST(ExistenceEquivalence, CollectViolationsMatchesReferenceDrawForDraw) {
  Rng gen(15);
  for (const Pattern& p : patterns()) {
    SCOPED_TRACE(describe(p));
    const ValueVector values = pattern_values(p, gen);
    const std::vector<bool> bits = pattern_bits(p, gen);
    auto ctx = pattern_context(values, 500 + p.n);
    // Nodes with a 1 bit get a filter their value violates.
    for (NodeId i = 0; i < p.n; ++i) {
      const double v = static_cast<double>(values[i]);
      ctx.set_filter_free(i, bits[i] ? Filter{v + 1.0, v + 2.0} : Filter::all());
    }
    Rng ref_rng = ctx.rng();
    const auto got = ctx.collect_violations();
    const auto want = reference::existence(
        p.n, [&](NodeId i) { return static_cast<bool>(bits[i]); },
        [&](NodeId i) { return values[i]; }, ref_rng);
    EXPECT_EQ(got.any, want.any);
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(got.rounds, want.rounds);
    ASSERT_EQ(got.senders.size(), want.senders.size());
    for (std::size_t j = 0; j < got.senders.size(); ++j) {
      EXPECT_EQ(got.senders[j].id, want.senders[j].id);
    }
    EXPECT_EQ(ctx.rng().state(), ref_rng.state());
  }
}

}  // namespace
}  // namespace topkmon
