// E3 — Corollary 3.3: the exact Top-k monitor is O(k log n + log Δ)-
// competitive against the exact filter-based offline optimum (improving the
// O(k log n + log Δ · log n) of [6] by EXISTENCE-batched violation
// reporting).
//
// Table 3a sweeps Δ at fixed (n, k): the ratio column must grow ~linearly
// in log Δ (each doubling of log Δ adds a constant). Table 3b sweeps k at
// fixed Δ: growth ~ k log n. Workload: reflected random walks (ranks
// change, neighborhood stays sparse).
#include <cmath>

#include "bench_common.hpp"

using namespace topkmon;
using bench::BenchArgs;

namespace {

ExperimentConfig base_cfg(const BenchArgs& args) {
  ExperimentConfig cfg;
  cfg.stream.kind = "random_walk";
  cfg.stream.n = 32;
  cfg.protocol = "exact_topk";
  cfg.k = 4;
  cfg.epsilon = 0.0;
  cfg.steps = args.steps;
  cfg.trials = args.trials;
  cfg.seed = args.seed;
  cfg.opt_kind = OptKind::kExact;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv, /*with_telemetry=*/true);

  {
    Table t("E3a / Table 3a — exact monitor vs exact OPT: ratio ~ k log n + log Δ "
            "(n=8, k=2, phase-torture climber)");
    t.header({"log2 Δ", "msgs (mean)", "OPT phases", "ratio", "ratio/(k·log2 n + log2 Δ)"});
    std::vector<SweepRow> rows;
    for (const int log_delta : {8, 12, 16, 24, 32, 40}) {
      auto cfg = base_cfg(args);
      cfg.stream.kind = "phase_torture";
      cfg.stream.n = 8;
      cfg.k = 2;
      cfg.stream.delta = Value{1} << log_delta;
      rows.push_back({std::to_string(log_delta), cfg});
    }
    const auto results = run_sweep(rows, args.threads, bench::sweep_sink(args));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double log_delta = std::stod(rows[i].label);
      const double bound = 2.0 * std::log2(8.0) + log_delta;
      t.add_row({rows[i].label, format_double(results[i].messages.mean(), 0),
                 format_double(results[i].opt_phases.mean(), 1),
                 format_double(results[i].ratio.mean(), 1),
                 format_double(results[i].ratio.mean() / bound, 2)});
    }
    bench::emit(t, args);
  }

  {
    Table t("E3b / Table 3b — exact monitor vs exact OPT: k sweep (n=32, Δ=2^16)");
    t.header({"k", "msgs (mean)", "OPT phases", "ratio", "ratio/(k·log2 n + 16)"});
    std::vector<SweepRow> rows;
    for (const std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
      auto cfg = base_cfg(args);
      cfg.k = k;
      cfg.stream.delta = Value{1} << 16;
      cfg.stream.walk_step = 64;
      rows.push_back({std::to_string(k), cfg});
    }
    const auto results = run_sweep(rows, args.threads, bench::sweep_sink(args));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double k = std::stod(rows[i].label);
      const double bound = k * std::log2(32.0) + 16.0;
      t.add_row({rows[i].label, format_double(results[i].messages.mean(), 0),
                 format_double(results[i].opt_phases.mean(), 1),
                 format_double(results[i].ratio.mean(), 1),
                 format_double(results[i].ratio.mean() / bound, 2)});
    }
    bench::emit(t, args);
  }
  bench::write_telemetry(args, bench::sweep_telemetry(), "bench_e3");
  return 0;
}
