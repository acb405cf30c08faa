// Replay a CSV trace (one row per step, one column per node) through any
// monitor. Without a --trace argument, a demo trace is synthesized first
// so the example is runnable out of the box.
//
//   $ ./trace_replay [--trace loads.csv] [--protocol combined] [--k 3]
#include <cstdio>
#include <iostream>

#include "apps/options.hpp"
#include "protocols/registry.hpp"
#include "sim/simulator.hpp"
#include "streams/trace_file.hpp"
#include "util/rng.hpp"

using namespace topkmon;

namespace {

std::string synthesize_demo_trace() {
  const std::string path = "/tmp/topkmon_demo_trace.csv";
  Rng rng(31337);
  std::vector<ValueVector> rows;
  ValueVector v{900, 800, 700, 600, 500, 400};
  for (int t = 0; t < 300; ++t) {
    for (auto& x : v) {
      const Value step = rng.below(25);
      x = (rng.bernoulli(0.5) && x > step) ? x - step : x + step;
    }
    rows.push_back(v);
  }
  write_trace(path, rows);
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string protocol = "combined";
  SimConfig cfg;
  cfg.k = 3;
  cfg.epsilon = 0.1;
  cfg.seed = 1;
  Options opts("example_trace_replay", "replay a CSV trace through a monitor");
  opts.add_string("trace", &path, "CSV trace (one row per step); empty = demo");
  opts.add_string("protocol", &protocol, "monitoring protocol");
  opts.add_size("k", &cfg.k, "top-k positions to monitor");
  opts.add_double("eps", &cfg.epsilon, "approximation parameter ε");
  opts.add_uint("seed", &cfg.seed, "protocol seed");
  opts.parse_or_exit(argc, argv);
  if (path.empty()) {
    path = synthesize_demo_trace();
    std::cout << "(no --trace given; synthesized demo trace at " << path << ")\n";
  }

  auto stream = std::make_unique<TraceFileStream>(path);
  const std::size_t rows = stream->rows();
  cfg.strict = true;
  Simulator sim(cfg, std::move(stream), make_protocol(protocol));
  sim.run(static_cast<TimeStep>(rows));

  std::cout << "protocol  : " << protocol << "\n"
            << "trace     : " << path << " (" << rows << " rows)\n"
            << "output    : {";
  const auto& out = sim.protocol().output();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::cout << out[i] << (i + 1 < out.size() ? ", " : "");
  }
  std::cout << "}\n" << sim.context().stats().report() << "\n";
  return 0;
}
