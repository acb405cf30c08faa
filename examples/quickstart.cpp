// Quickstart: monitor the top-3 of 10 random-walking streams with ε = 0.1.
//
//   $ ./quickstart [--steps 100] [--seed 7]
//
// Shows the three core moves of the library:
//   1. build a stream generator (or implement StreamGenerator yourself),
//   2. pick a monitoring protocol (here: the Theorem 5.8 combined monitor),
//   3. drive the Simulator and read output + message statistics.
#include <iostream>

#include "apps/options.hpp"
#include "protocols/combined.hpp"
#include "sim/simulator.hpp"
#include "streams/random_walk.hpp"

using namespace topkmon;

int main(int argc, char** argv) {
  std::uint64_t steps = 100;
  std::uint64_t seed = 7;
  Options opts("example_quickstart", "top-3 of 10 random walks with ε = 0.1");
  opts.add_uint("steps", &steps, "run length in time steps");
  opts.add_uint("seed", &seed, "protocol seed");
  opts.parse_or_exit(argc, argv);

  RandomWalkConfig stream_cfg;
  stream_cfg.n = 10;          // ten distributed nodes
  stream_cfg.hi = 10000;      // values in [0, 10000]
  stream_cfg.max_step = 50;   // smooth walks — the filter-friendly regime

  SimConfig sim_cfg;
  sim_cfg.k = 3;              // track the top-3 positions
  sim_cfg.epsilon = 0.1;      // ... up to 10% slack around the 3rd value
  sim_cfg.seed = seed;
  sim_cfg.strict = true;      // re-validate the protocol contract every step

  Simulator sim(sim_cfg, std::make_unique<RandomWalkStream>(stream_cfg),
                std::make_unique<CombinedMonitor>());

  for (TimeStep t = 0; t < static_cast<TimeStep>(steps); ++t) {
    sim.step();
    if (t % 10 == 0) {
      std::cout << "t=" << t << "  F(t) = {";
      const auto& out = sim.protocol().output();
      for (std::size_t i = 0; i < out.size(); ++i) {
        std::cout << out[i] << (i + 1 < out.size() ? ", " : "");
      }
      std::cout << "}  messages so far = " << sim.context().stats().total() << "\n";
    }
  }

  const auto result = sim.result();
  std::cout << "\nRan " << result.steps << " steps.\n"
            << sim.context().stats().report() << "\n"
            << "\nA naive collect-everything server would have paid "
            << result.steps * (stream_cfg.n + 1) << " messages; filters paid "
            << result.messages << ".\n";
  return 0;
}
