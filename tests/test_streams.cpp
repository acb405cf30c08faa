#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "model/oracle.hpp"
#include "streams/lb_adversary.hpp"
#include "streams/oscillating.hpp"
#include "streams/phase_torture.hpp"
#include "streams/random_walk.hpp"
#include "streams/registry.hpp"
#include "streams/sine_noise.hpp"
#include "streams/trace_file.hpp"
#include "streams/uniform.hpp"
#include "streams/zipf_bursty.hpp"

namespace topkmon {
namespace {

/// A fleet of n nodes at value 0 with the all-accepting filter, stored as
/// the parallel arrays an AdversaryView reads.
struct DummyFleet {
  explicit DummyFleet(std::size_t n)
      : values(n, 0), lo(n, Filter::all().lo), hi(n, Filter::all().hi) {}
  ValueVector values;
  std::vector<double> lo;
  std::vector<double> hi;
};

AdversaryView dummy_view(const DummyFleet& fleet, const OutputSet& out, std::size_t k,
                         double eps) {
  const NodeRange nodes{fleet.values.data(), fleet.lo.data(), fleet.hi.data(),
                        fleet.values.size()};
  return AdversaryView{nodes, &out, k, eps};
}

// ---- generic properties over every registered kind ------------------------

class StreamKindTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamKindTest, DeterministicForSameSeed) {
  StreamSpec spec;
  spec.kind = GetParam();
  spec.n = 12;
  spec.k = 3;
  spec.sigma = 6;
  spec.delta = 1 << 16;
  auto g1 = make_stream(spec);
  auto g2 = make_stream(spec);
  Rng r1(77), r2(77);
  ValueVector v1(g1->n()), v2(g2->n());
  g1->init(v1, r1);
  g2->init(v2, r2);
  EXPECT_EQ(v1, v2);
  const DummyFleet nodes(g1->n());
  OutputSet out{0, 1, 2};
  for (TimeStep t = 1; t < 50; ++t) {
    g1->step(t, dummy_view(nodes, out, spec.k, spec.epsilon), v1, r1);
    g2->step(t, dummy_view(nodes, out, spec.k, spec.epsilon), v2, r2);
    EXPECT_EQ(v1, v2) << "kind=" << GetParam() << " t=" << t;
  }
}

TEST_P(StreamKindTest, ValuesWithinObservableRange) {
  StreamSpec spec;
  spec.kind = GetParam();
  spec.n = 12;
  spec.k = 3;
  spec.sigma = 6;
  spec.delta = 1 << 16;
  auto g = make_stream(spec);
  Rng rng(123);
  ValueVector v(g->n());
  g->init(v, rng);
  const DummyFleet nodes(g->n());
  OutputSet out{0, 1, 2};
  for (TimeStep t = 1; t < 200; ++t) {
    g->step(t, dummy_view(nodes, out, spec.k, spec.epsilon), v, rng);
    for (const auto x : v) {
      EXPECT_LE(x, kMaxObservableValue);
    }
  }
}

TEST_P(StreamKindTest, CloneIsIndependentAndEquivalent) {
  StreamSpec spec;
  spec.kind = GetParam();
  spec.n = 8;
  spec.k = 2;
  spec.sigma = 4;
  auto g = make_stream(spec);
  auto c = g->clone();
  EXPECT_EQ(g->n(), c->n());
  EXPECT_EQ(g->name(), c->name());
  Rng r1(5), r2(5);
  ValueVector v1(g->n()), v2(c->n());
  g->init(v1, r1);
  c->init(v2, r2);
  EXPECT_EQ(v1, v2);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, StreamKindTest,
                         ::testing::Values("uniform", "random_walk", "oscillating",
                                           "zipf_bursty", "sine_noise",
                                           "lb_adversary", "phase_torture"));

TEST(StreamRegistry, UnknownKindThrows) {
  StreamSpec spec;
  spec.kind = "nope";
  EXPECT_THROW(make_stream(spec), std::runtime_error);
}

TEST(StreamRegistry, PhaseTortureDerivesLegalClimberForSmallDelta) {
  StreamSpec spec;
  spec.kind = "phase_torture";
  spec.n = 8;
  spec.k = 2;
  const auto climber = [&](Value delta) {
    spec.delta = delta;
    const auto g = make_stream(spec);
    return dynamic_cast<const PhaseTortureStream&>(*g).config().climber_start;
  };
  EXPECT_EQ(climber(Value{1} << 16), 4u);  // the default wherever it is legal
  EXPECT_EQ(climber(257), 4u);
  EXPECT_EQ(climber(256), 3u);  // 64·4 = Δ: the largest legal start instead
  EXPECT_EQ(climber(129), 2u);
  for (const Value delta : {Value{0}, Value{128}}) {  // no start ≥ 2 is legal
    spec.delta = delta;
    EXPECT_THROW(make_stream(spec), std::runtime_error) << delta;
  }
}

TEST(StreamRegistry, KindListMatchesFactories) {
  for (const auto& kind : stream_kinds()) {
    if (kind == "trace_file") continue;  // needs a file
    StreamSpec spec;
    spec.kind = kind;
    spec.n = 8;
    spec.k = 2;
    spec.sigma = 4;
    EXPECT_NO_THROW(make_stream(spec)) << kind;
  }
}

// ---- per-generator behaviour ----------------------------------------------

TEST(RandomWalk, StepsBounded) {
  RandomWalkConfig cfg;
  cfg.n = 4;
  cfg.lo = 100;
  cfg.hi = 200;
  cfg.max_step = 5;
  RandomWalkStream g(cfg);
  Rng rng(3);
  ValueVector v(4);
  g.init(v, rng);
  ValueVector prev = v;
  const DummyFleet nodes(4);
  OutputSet out{0};
  for (TimeStep t = 1; t < 500; ++t) {
    g.step(t, dummy_view(nodes, out, 1, 0.1), v, rng);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_GE(v[i], 100u);
      EXPECT_LE(v[i], 200u);
      const auto diff = v[i] > prev[i] ? v[i] - prev[i] : prev[i] - v[i];
      EXPECT_LE(diff, 2 * cfg.max_step);  // reflection can double the step
    }
    prev = v;
  }
}

// The per-node loop of the draw contract in streams/random_walk.hpp, written
// with plain Rng calls. Counts the reflections it takes at each bound so the
// test can show that both were exercised.
struct ReflectCounts {
  std::uint64_t at_hi = 0;
  std::uint64_t at_lo = 0;
};

void reference_walk_step(const RandomWalkConfig& cfg, ValueVector& out, Rng& rng,
                         ReflectCounts& reflected) {
  for (auto& v : out) {
    if (rng.bernoulli(cfg.laziness)) continue;
    const Value delta = rng.uniform_u64(1, cfg.max_step);
    if (rng.bernoulli(0.5)) {
      const Value headroom = cfg.hi - v;
      if (delta > headroom) ++reflected.at_hi;
      v = (delta <= headroom) ? v + delta : cfg.hi - (delta - headroom);
    } else {
      const Value room = v - cfg.lo;
      if (delta > room) ++reflected.at_lo;
      v = (delta <= room) ? v - delta : cfg.lo + (delta - room);
    }
    if (v < cfg.lo) v = cfg.lo;
    if (v > cfg.hi) v = cfg.hi;
  }
}

TEST(RandomWalk, StepMatchesReferenceLoopDrawForDraw) {
  struct Case {
    std::size_t n;
    Value lo, hi, max_step;
    double laziness;
    bool reflects;  ///< the case must reflect at both bounds
  };
  const Case cases[] = {
      {64, 100, 200, 5, 0.25, true},        // lo > 0, reflection at both bounds
      {64, 1000, 1010, 64, 0.0, true},      // no laziness draw; steps overshoot the range
      {64, 0, 1 << 20, 64, 1.0, false},     // never moves, never draws
      {256, 0, 1 << 20, 64, 0.25, false},   // the registry default
      {64, 7, 1 << 20, (Value{1} << 63) + 1, 0.5, true},  // Lemire rejects ~half
  };
  for (const Case& c : cases) {
    RandomWalkConfig cfg;
    cfg.n = c.n;
    cfg.lo = c.lo;
    cfg.hi = c.hi;
    cfg.max_step = c.max_step;
    cfg.laziness = c.laziness;
    SCOPED_TRACE(::testing::Message() << "n=" << c.n << " lo=" << c.lo << " hi=" << c.hi
                                      << " max_step=" << c.max_step
                                      << " laziness=" << c.laziness);
    RandomWalkStream g(cfg);
    Rng rng(5);
    ValueVector v(c.n);
    g.init(v, rng);
    ValueVector ref = v;
    Rng ref_rng = rng;
    const DummyFleet nodes(c.n);
    OutputSet out{0};
    ReflectCounts reflected;
    for (TimeStep t = 1; t <= 300; ++t) {
      g.step(t, dummy_view(nodes, out, 1, 0.1), v, rng);
      reference_walk_step(cfg, ref, ref_rng, reflected);
      ASSERT_EQ(v, ref) << "step " << t;
      ASSERT_EQ(rng.state(), ref_rng.state()) << "step " << t;
    }
    if (c.reflects) {
      EXPECT_GT(reflected.at_hi, 0u);
      EXPECT_GT(reflected.at_lo, 0u);
    }
    if (c.laziness >= 1.0) {
      Rng untouched(5);
      ValueVector init(c.n);
      g.init(init, untouched);
      EXPECT_EQ(rng.state(), untouched.state());
      EXPECT_EQ(v, init);
    }
  }
}

TEST(RandomWalk, SpreadInitIsEvenAndSorted) {
  RandomWalkConfig cfg;
  cfg.n = 10;
  cfg.lo = 0;
  cfg.hi = 1000;
  cfg.spread_init = true;
  RandomWalkStream g(cfg);
  Rng rng(3);
  ValueVector v(10);
  g.init(v, rng);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_GE(v.front(), 0u);
  EXPECT_LE(v.back(), 1000u);
}

TEST(Oscillating, SigmaIsExactEveryStep) {
  OscillatingConfig cfg;
  cfg.n = 24;
  cfg.k = 5;
  cfg.epsilon = 0.1;
  cfg.sigma = 9;
  OscillatingStream g(cfg);
  Rng rng(21);
  ValueVector v(cfg.n);
  g.init(v, rng);
  const DummyFleet nodes(cfg.n);
  OutputSet out{0, 1, 2, 3, 4};
  for (TimeStep t = 0; t < 300; ++t) {
    if (t > 0) g.step(t, dummy_view(nodes, out, cfg.k, cfg.epsilon), v, rng);
    EXPECT_EQ(Oracle::sigma(v, cfg.k, cfg.epsilon), cfg.sigma) << "t=" << t;
  }
}

TEST(Oscillating, DriftingBandKeepsSigmaExact) {
  OscillatingConfig cfg;
  cfg.n = 24;
  cfg.k = 5;
  cfg.epsilon = 0.1;
  cfg.sigma = 9;
  cfg.drift = 0.05;
  OscillatingStream g(cfg);
  Rng rng(77);
  ValueVector v(cfg.n);
  g.init(v, rng);
  const DummyFleet nodes(cfg.n);
  OutputSet out{0, 1, 2, 3, 4};
  Value min_top = cfg.band_top, max_top = 0;
  for (TimeStep t = 0; t < 400; ++t) {
    if (t > 0) g.step(t, dummy_view(nodes, out, cfg.k, cfg.epsilon), v, rng);
    EXPECT_EQ(Oracle::sigma(v, cfg.k, cfg.epsilon), cfg.sigma) << "t=" << t;
    min_top = std::min(min_top, g.band_hi());
    max_top = std::max(max_top, g.band_hi());
  }
  EXPECT_LT(min_top, max_top) << "band must actually move";
  EXPECT_GE(min_top, cfg.band_top / 2);
  EXPECT_LE(max_top, cfg.band_top);
}

TEST(Oscillating, SigmaSmallerThanKAlsoWorks) {
  OscillatingConfig cfg;
  cfg.n = 24;
  cfg.k = 8;
  cfg.epsilon = 0.2;
  cfg.sigma = 3;
  OscillatingStream g(cfg);
  Rng rng(22);
  ValueVector v(cfg.n);
  g.init(v, rng);
  for (TimeStep t = 0; t < 100; ++t) {
    const DummyFleet nodes(cfg.n);
    OutputSet out;
    if (t > 0) g.step(t, dummy_view(nodes, out, cfg.k, cfg.epsilon), v, rng);
    EXPECT_EQ(Oracle::sigma(v, cfg.k, cfg.epsilon), cfg.sigma) << "t=" << t;
    // The k-th largest must be an oscillator value, inside the band.
    const Value vk = Oracle::kth_value(v, cfg.k);
    EXPECT_GE(vk, g.band_lo());
    EXPECT_LE(vk, g.band_hi());
  }
}

TEST(ZipfBursty, SkewedBaseLoads) {
  ZipfBurstyConfig cfg;
  cfg.n = 16;
  cfg.noise = 0.0;
  cfg.burst_prob = 0.0;
  ZipfBurstyStream g(cfg);
  Rng rng(31);
  ValueVector v(cfg.n);
  g.init(v, rng);
  EXPECT_GT(v[0], v[5]);
  EXPECT_GT(v[1], v[10]);
}

TEST(SineNoise, StaysNearMidWithoutNoise) {
  SineNoiseConfig cfg;
  cfg.n = 4;
  cfg.mid = 10000;
  cfg.amplitude = 1000;
  cfg.noise = 0;
  SineNoiseStream g(cfg);
  Rng rng(41);
  ValueVector v(4);
  g.init(v, rng);
  const DummyFleet nodes(4);
  OutputSet out{0};
  for (TimeStep t = 1; t < 600; ++t) {
    g.step(t, dummy_view(nodes, out, 1, 0.1), v, rng);
    for (const auto x : v) {
      EXPECT_GE(x, 9000u);
      EXPECT_LE(x, 11000u);
    }
  }
}

TEST(TraceFile, ParsesAndReplays) {
  const auto rows = parse_trace_csv("1,2,3\n4,5,6\n7,8,9\n");
  ASSERT_EQ(rows.size(), 3u);
  TraceFileStream g(rows);
  EXPECT_EQ(g.n(), 3u);
  Rng rng(1);
  ValueVector v(3);
  g.init(v, rng);
  EXPECT_EQ(v, (ValueVector{1, 2, 3}));
  const DummyFleet nodes(3);
  OutputSet out{0};
  g.step(1, dummy_view(nodes, out, 1, 0.1), v, rng);
  EXPECT_EQ(v, (ValueVector{4, 5, 6}));
  g.step(2, dummy_view(nodes, out, 1, 0.1), v, rng);
  EXPECT_EQ(v, (ValueVector{7, 8, 9}));
  // Exhausted: repeats last row.
  g.step(3, dummy_view(nodes, out, 1, 0.1), v, rng);
  EXPECT_EQ(v, (ValueVector{7, 8, 9}));
}

TEST(TraceFile, RejectsMalformedCsv) {
  EXPECT_THROW(parse_trace_csv(""), std::runtime_error);
  EXPECT_THROW(parse_trace_csv("1,2\n3\n"), std::runtime_error);
  EXPECT_THROW(parse_trace_csv("1,x\n"), std::runtime_error);
}

TEST(TraceFile, SkipsCommentsAndBlankLines) {
  const auto rows = parse_trace_csv("# header\n\n1,2\n3,4\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (ValueVector{3, 4}));
}

TEST(TraceFile, RoundTripThroughDisk) {
  const std::string path = ::testing::TempDir() + "/topkmon_trace.csv";
  std::vector<ValueVector> rows{{10, 20}, {30, 40}};
  write_trace(path, rows);
  TraceFileStream g(path);
  EXPECT_EQ(g.rows(), 2u);
  EXPECT_EQ(g.n(), 2u);
}

}  // namespace
}  // namespace topkmon
