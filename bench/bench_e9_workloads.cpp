// E9 — cross-workload evaluation: every monitor on every workload
// (the "evaluation section" a systems version of the paper would contain).
//
// Table 9 reports messages/step and the competitive ratio vs the
// appropriate offline optimum (exact OPT for exact monitors, OPT(ε)
// otherwise). Shapes to check:
//   * naive_central pays n+1 per step everywhere — the ceiling;
//   * on random walks all filter-based monitors are ~2 orders cheaper;
//   * on oscillating (dense churn) the ε-monitors beat exact_topk by a
//     widening margin (the paper's raison d'être);
//   * on uniform (no locality) filters cannot help much — everyone is
//     expensive, naive_change approaches naive_central.
#include "bench_common.hpp"

using namespace topkmon;
using bench::BenchArgs;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv, /*with_telemetry=*/true);

  const std::vector<std::string> protocols{"naive_central", "naive_change",
                                           "exact_topk", "topk_protocol",
                                           "combined", "half_error"};
  const std::vector<std::string> workloads{"uniform", "random_walk", "oscillating",
                                           "zipf_bursty", "sine_noise"};

  std::vector<SweepRow> rows;
  for (const auto& workload : workloads) {
    for (const auto& protocol : protocols) {
      ExperimentConfig cfg;
      cfg.stream.kind = workload;
      cfg.stream.n = 32;
      cfg.stream.sigma = 12;
      cfg.stream.delta = 1 << 16;
      cfg.protocol = protocol;
      cfg.k = 4;
      const bool exact = protocol == "exact_topk" || protocol == "naive_central" ||
                         protocol == "naive_change";
      cfg.epsilon = exact ? 0.0 : 0.15;
      cfg.stream.epsilon = 0.15;
      cfg.steps = args.steps;
      cfg.trials = args.trials;
      cfg.seed = args.seed;
      cfg.opt_kind = exact ? OptKind::kExact : OptKind::kApprox;
      rows.push_back({workload + "/" + protocol, cfg});
    }
  }
  const auto results = run_sweep(rows, args.threads, bench::sweep_sink(args));

  Table t("E9 / Table 9 — all monitors × all workloads (n=32, k=4, ε=0.15, " +
          std::to_string(args.steps) + " steps)");
  t.header({"workload", "protocol", "msgs/step", "total msgs", "OPT phases",
            "ratio", "max σ"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto slash = rows[i].label.find('/');
    t.add_row({rows[i].label.substr(0, slash), rows[i].label.substr(slash + 1),
               format_double(results[i].msgs_per_step.mean(), 2),
               format_double(results[i].messages.mean(), 0),
               format_double(results[i].opt_phases.mean(), 1),
               format_double(results[i].ratio.mean(), 1),
               format_double(results[i].max_sigma.max(), 0)});
  }
  bench::emit(t, args);
  bench::write_telemetry(args, bench::sweep_telemetry(), "bench_e9");
  return 0;
}
