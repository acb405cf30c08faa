// E4 — Theorem 4.5: TOP-K-PROTOCOL (error ε allowed) against the *exact*
// offline optimum costs O(k log n + log log Δ + log 1/ε) per OPT phase —
// the approximation buys log Δ → log log Δ.
//
// Table 4a: Δ sweep under the phase-torture adversary (the worst case for
// the interval game). The headline shape: per-phase cost grows ~log log Δ —
// compare with the exact monitor's log Δ growth on the same adversary.
// Table 4b: ε sweep at fixed Δ — additive log(1/ε) growth.
#include <cmath>

#include "bench_common.hpp"

using namespace topkmon;
using bench::BenchArgs;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv, /*with_telemetry=*/true);

  {
    Table t("E4a / Table 4a — Δ sweep on phase-torture: TOP-K-PROTOCOL (ε=0.2) vs "
            "exact monitor, both against exact OPT (n=8, k=2)");
    t.header({"log2 Δ", "topk ratio", "exact ratio", "log2 log2 Δ", "log2 Δ",
              "topk wins by"});
    std::vector<SweepRow> rows;
    for (const char* protocol : {"topk_protocol", "exact_topk"}) {
      for (const int log_delta : {10, 16, 24, 32, 40}) {
        ExperimentConfig cfg;
        cfg.stream.kind = "phase_torture";
        cfg.stream.n = 8;
        cfg.stream.delta = Value{1} << log_delta;
        cfg.protocol = protocol;
        cfg.k = 2;
        cfg.epsilon = protocol == std::string("exact_topk") ? 0.0 : 0.2;
        cfg.steps = args.steps;
        cfg.trials = args.trials;
        cfg.seed = args.seed;
        cfg.opt_kind = OptKind::kExact;
        rows.push_back({std::string(protocol) + "@" + std::to_string(log_delta), cfg});
      }
    }
    const auto results = run_sweep(rows, args.threads, bench::sweep_sink(args));
    const std::size_t half = rows.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      const double log_delta = std::stod(rows[i].label.substr(rows[i].label.find('@') + 1));
      const double topk_ratio = results[i].ratio.mean();
      const double exact_ratio = results[half + i].ratio.mean();
      t.add_row({format_double(log_delta, 0), format_double(topk_ratio, 1),
                 format_double(exact_ratio, 1),
                 format_double(std::log2(log_delta), 2), format_double(log_delta, 0),
                 format_double(exact_ratio / std::max(1.0, topk_ratio), 2)});
    }
    bench::emit(t, args);
  }

  {
    Table t("E4b / Table 4b — ε sweep on phase-torture (Δ=2^32): additive log2(1/ε)");
    t.header({"ε", "msgs (mean)", "OPT phases", "ratio", "log2(1/ε)"});
    std::vector<SweepRow> rows;
    for (const double eps : {0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625}) {
      ExperimentConfig cfg;
      cfg.stream.kind = "phase_torture";
      cfg.stream.n = 8;
      cfg.stream.delta = Value{1} << 32;
      cfg.protocol = "topk_protocol";
      cfg.k = 2;
      cfg.epsilon = eps;
      cfg.steps = args.steps;
      cfg.trials = args.trials;
      cfg.seed = args.seed;
      cfg.opt_kind = OptKind::kExact;
      rows.push_back({format_double(eps, 6), cfg});
    }
    const auto results = run_sweep(rows, args.threads, bench::sweep_sink(args));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double eps = std::stod(rows[i].label);
      t.add_row({rows[i].label, format_double(results[i].messages.mean(), 0),
                 format_double(results[i].opt_phases.mean(), 1),
                 format_double(results[i].ratio.mean(), 1),
                 format_double(std::log2(1.0 / eps), 1)});
    }
    bench::emit(t, args);
  }
  bench::write_telemetry(args, bench::sweep_telemetry(), "bench_e4");
  return 0;
}
