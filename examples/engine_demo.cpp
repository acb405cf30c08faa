// engine_demo — 32 concurrent top-k queries over one zipf_bursty fleet.
//
// A multi-tenant dashboard scenario: one fleet of 64 web servers streams
// request loads; 32 independent dashboards each watch their own top-k with
// their own accuracy budget ε (some exact, most approximate). Instead of 32
// separate monitors (32× generator work, 32× probe traffic), the
// MonitoringEngine advances all queries in lockstep over a single shared
// value snapshot per tick and batches the probe rounds they share.
//
//   $ ./example_engine_demo [--steps 2000] [--threads 0] [--seed 7]
#include <iostream>

#include "apps/options.hpp"
#include "engine/engine.hpp"
#include "streams/registry.hpp"
#include "util/table.hpp"

using namespace topkmon;

int main(int argc, char** argv) {
  std::uint64_t steps = 2000;
  EngineConfig cfg;
  cfg.seed = 7;
  Options opts("example_engine_demo", "32 concurrent top-k queries over one fleet");
  opts.add_uint("steps", &steps, "run length in ticks");
  opts.add_size("threads", &cfg.threads, "worker threads (0 = auto)");
  opts.add_uint("seed", &cfg.seed, "engine seed");
  opts.parse_or_exit(argc, argv);

  StreamSpec fleet;
  fleet.kind = "zipf_bursty";
  fleet.n = 64;
  fleet.k = 4;
  fleet.epsilon = 0.1;
  fleet.sigma = 16;
  fleet.delta = 1 << 16;

  MonitoringEngine engine(cfg, make_stream(fleet));

  // 32 dashboards: a quarter need the exact top-k, the rest trade accuracy
  // for communication at increasing ε.
  for (std::size_t q = 0; q < 32; ++q) {
    QuerySpec spec;
    spec.k = 2 + q % 6;  // k in 2..7
    if (q % 4 == 0) {
      spec.protocol = "exact_topk";
      spec.epsilon = 0.0;
      spec.label = "dash" + std::to_string(q) + " exact k=" + std::to_string(spec.k);
    } else {
      spec.protocol = "combined";
      spec.epsilon = 0.05 * static_cast<double>(1 + q % 3);  // 0.05 / 0.10 / 0.15
      spec.label = "dash" + std::to_string(q) + " eps=" + format_double(spec.epsilon, 2);
    }
    engine.add_query(spec);
  }

  const EngineStats stats = engine.run(static_cast<TimeStep>(steps));

  std::cout << stats
                   .summary_table("engine_demo — 32 dashboards, one fleet (n=64, " +
                                  std::to_string(steps) + " ticks)")
                   .to_ascii()
            << "\n";
  std::cout << stats.per_query_table("per-dashboard breakdown").to_ascii() << "\n";

  const double naive = static_cast<double>(stats.queries.size()) *
                       static_cast<double>(fleet.n + 1) * static_cast<double>(steps);
  std::cout << "total messages: " << format_count(stats.messages) << "  ("
            << format_double(naive / static_cast<double>(stats.messages), 1)
            << "x cheaper than 32 naive central monitors)\n";
  std::cout << "shared probe channel: " << format_count(stats.probe_calls)
            << " probe_top requests served by "
            << format_count(stats.probe_ranks_computed)
            << " once-per-step rank computations\n";
  return 0;
}
