// The paper's motivating scenario (Sect. 1): a load balancer in a web
// cluster tracks the k most-loaded servers. Loads are Zipf-skewed with
// bursts and ±2% observation noise — noise that an exact monitor chases
// and an ε-monitor ignores.
//
//   $ ./load_balancer [--n 32] [--k 4] [--eps 0.15] [--steps 2000]
//
// Runs the exact monitor and the approximate combined monitor on the SAME
// load trace and prints the communication comparison.
#include <iostream>

#include "apps/options.hpp"
#include "protocols/exact_topk.hpp"
#include "protocols/combined.hpp"
#include "sim/simulator.hpp"
#include "streams/zipf_bursty.hpp"
#include "util/table.hpp"

using namespace topkmon;

int main(int argc, char** argv) {
  ZipfBurstyConfig stream_cfg;
  stream_cfg.n = 32;
  stream_cfg.base_scale = 1 << 16;
  stream_cfg.noise = 0.02;
  std::size_t k = 4;
  double eps = 0.15;
  std::uint64_t steps = 2000;
  std::uint64_t seed = 2024;
  Options opts("example_load_balancer", "exact vs ε-approximate load monitoring");
  opts.add_size("n", &stream_cfg.n, "servers (nodes)");
  opts.add_double("noise", &stream_cfg.noise, "multiplicative observation noise");
  opts.add_size("k", &k, "top-k positions to monitor");
  opts.add_double("eps", &eps, "approximation parameter ε");
  opts.add_uint("steps", &steps, "run length in time steps");
  opts.add_uint("seed", &seed, "seed of the load trace and protocols");
  opts.parse_or_exit(argc, argv);

  auto run = [&](std::unique_ptr<MonitoringProtocol> protocol, double protocol_eps) {
    SimConfig cfg;
    cfg.k = k;
    cfg.epsilon = protocol_eps;
    cfg.seed = seed;  // same seed => identical load trace for both monitors
    cfg.strict = true;
    Simulator sim(cfg, std::make_unique<ZipfBurstyStream>(stream_cfg),
                  std::move(protocol));
    return sim.run(static_cast<TimeStep>(steps));
  };

  const auto exact = run(std::make_unique<ExactTopKMonitor>(), 0.0);
  const auto approx = run(std::make_unique<CombinedMonitor>(), eps);

  Table t("Load balancer: exact vs ε-approximate top-" + std::to_string(k) +
          " monitoring (" + std::to_string(stream_cfg.n) + " servers, " +
          std::to_string(steps) + " steps)");
  t.header({"monitor", "messages", "msgs/step", "broadcasts", "node->server"});
  t.add_row({"exact_topk (ε=0)", format_count(exact.messages),
             format_double(exact.messages_per_step, 2), format_count(exact.broadcasts),
             format_count(exact.node_to_server)});
  t.add_row({"combined (ε=" + format_double(eps, 2) + ")", format_count(approx.messages),
             format_double(approx.messages_per_step, 2),
             format_count(approx.broadcasts), format_count(approx.node_to_server)});
  std::cout << t.to_ascii();
  std::cout << "\nTolerating ±" << format_double(eps * 100, 0)
            << "% around the k-th load cut communication by "
            << format_double(static_cast<double>(exact.messages) /
                                 static_cast<double>(std::max<std::uint64_t>(
                                     1, approx.messages)),
                             1)
            << "x.\n";
  return 0;
}
