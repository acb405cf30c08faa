// Dense-neighborhood scenario: a fleet of sensors whose readings oscillate
// inside the ε-band around the k-th value — the regime Sect. 5 of the
// paper is about. An exact monitor must react to every rank swap inside
// the band; the ε-monitors may stay silent.
//
//   $ ./sensor_noise [--sigma 10] [--k 4] [--eps 0.1] [--steps 1000]
#include <iostream>

#include "apps/options.hpp"
#include "protocols/registry.hpp"
#include "sim/simulator.hpp"
#include "streams/oscillating.hpp"
#include "util/table.hpp"

using namespace topkmon;

int main(int argc, char** argv) {
  OscillatingConfig stream_cfg;
  stream_cfg.sigma = 10;
  stream_cfg.k = 4;
  stream_cfg.epsilon = 0.1;
  std::uint64_t steps = 1000;
  std::uint64_t seed = 5;
  Options opts("example_sensor_noise", "sensors oscillating in the ε-band");
  opts.add_size("sigma", &stream_cfg.sigma, "oscillating sensors σ");
  opts.add_size("k", &stream_cfg.k, "top-k positions to monitor");
  opts.add_double("eps", &stream_cfg.epsilon, "approximation parameter ε");
  opts.add_uint("steps", &steps, "run length in time steps");
  opts.add_uint("seed", &seed, "protocol seed");
  opts.parse_or_exit(argc, argv);
  stream_cfg.n = 2 * stream_cfg.sigma + stream_cfg.k + 4;
  stream_cfg.band_top = 1 << 16;

  Table t("Sensor fleet with σ=" + std::to_string(stream_cfg.sigma) +
          " nodes oscillating in the ε-band (n=" + std::to_string(stream_cfg.n) +
          ", k=" + std::to_string(stream_cfg.k) + ", " + std::to_string(steps) +
          " steps)");
  t.header({"monitor", "ε used", "messages", "msgs/step"});

  for (const auto& [name, eps] :
       std::vector<std::pair<std::string, double>>{{"naive_central", 0.0},
                                                   {"exact_topk", 0.0},
                                                   {"combined", stream_cfg.epsilon},
                                                   {"half_error", stream_cfg.epsilon}}) {
    SimConfig cfg;
    cfg.k = stream_cfg.k;
    cfg.epsilon = eps;
    cfg.seed = seed;
    cfg.strict = true;
    Simulator sim(cfg, std::make_unique<OscillatingStream>(stream_cfg),
                  make_protocol(name));
    const auto r = sim.run(static_cast<TimeStep>(steps));
    t.add_row({name, format_double(eps, 2), format_count(r.messages),
               format_double(r.messages_per_step, 2)});
  }
  std::cout << t.to_ascii();
  std::cout << "\nAll the churn lives inside the ε-neighborhood: the approximate\n"
               "monitors certify the band once and then stay silent, while the\n"
               "exact ones chase every swap of the k-th position.\n";
  return 0;
}
