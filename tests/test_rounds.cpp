// Model-compliance checks: the communication protocol between two
// consecutive time steps may use at most polylog(n, Δ) rounds (Sect. 2 of
// the paper). Every protocol must respect that budget on every workload.
#include <cmath>

#include <gtest/gtest.h>

#include "protocols/registry.hpp"
#include "sim/simulator.hpp"
#include "streams/registry.hpp"

namespace topkmon {
namespace {

struct RoundsCase {
  std::string protocol;
  std::string stream;
  std::size_t n;
};

// Without this, gtest prints the raw bytes of the case, string heap pointers
// included, and the discovered test names change from build to build.
void PrintTo(const RoundsCase& c, std::ostream* os) {
  *os << c.protocol << "/" << c.stream << "/" << c.n;
}

class RoundBudget : public ::testing::TestWithParam<RoundsCase> {};

TEST_P(RoundBudget, PolylogRoundsPerStep) {
  const auto& [protocol, stream, n] = GetParam();
  StreamSpec spec;
  spec.kind = stream;
  spec.n = n;
  spec.k = 4;
  spec.sigma = n / 2;
  spec.delta = 1 << 16;
  spec.epsilon = 0.15;
  SimConfig cfg;
  cfg.k = 4;
  cfg.epsilon = 0.15;
  cfg.seed = 0xB00;
  Simulator sim(cfg, make_stream(spec), make_protocol(protocol));
  const auto r = sim.run(200);
  // Budget: log^3(n * Delta) is a comfortable polylog envelope; a protocol
  // that serialized per-node communication would hit ~n * log n instead
  // (for n = 128: polylog ~ 9261 vs linear ~ 16k+ per heavy step... use a
  // tighter practical bound: c * log(n)^2 * log(Delta)).
  const double logn = std::log2(static_cast<double>(n)) + 1.0;
  const double budget = 8.0 * logn * logn * 17.0;  // c · log²n · logΔ
  EXPECT_LE(static_cast<double>(r.max_rounds_per_step), budget)
      << protocol << " on " << stream;
}

std::vector<RoundsCase> cases() {
  std::vector<RoundsCase> out;
  for (const char* protocol : {"exact_topk", "topk_protocol", "combined", "half_error"}) {
    for (const char* stream : {"random_walk", "oscillating", "uniform"}) {
      out.push_back({protocol, stream, 32});
      out.push_back({protocol, stream, 128});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(All, RoundBudget, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<RoundsCase>& param) {
                           return param.param.protocol + "_" + param.param.stream +
                                  "_" + std::to_string(param.param.n);
                         });

TEST(RoundAccounting, ExistenceDominatedStepsStayTiny) {
  // A quiescent step costs one violation-existence check: <= log n + 1
  // rounds and zero messages.
  StreamSpec spec;
  spec.kind = "sine_noise";
  spec.n = 64;
  spec.k = 4;
  spec.delta = 1 << 14;
  SimConfig cfg;
  cfg.k = 4;
  cfg.epsilon = 0.3;  // wide band: mostly quiescent
  cfg.seed = 77;
  Simulator sim(cfg, make_stream(spec), make_protocol("combined"));
  sim.run(50);
  const auto before_msgs = sim.context().stats().total();
  sim.context().stats().begin_step();
  // Direct quiescence check at the context level.
  const bool quiet = !sim.context().collect_violations().any;
  if (quiet) {
    EXPECT_EQ(sim.context().stats().total(), before_msgs);
    EXPECT_LE(sim.context().stats().rounds_this_step(), 7u);  // log2 64 + 1
  }
}

}  // namespace
}  // namespace topkmon
