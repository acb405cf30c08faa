// E14 — churn path: steps/s under heavy value churn and adversarial
// oscillation, over the churn cell grid of bench/hotpath_workload.hpp.
//
// Where bench_e13_hotpath measures the *quiescent* per-step overhead, this
// table measures the regimes the paper actually studies — dense value churn
// and Theorem 5.1-style oscillation — where every step pays the σ(t) diff
// and partition scan, the violation sweep, and (on the osc cell) real
// protocol rounds. CI gates:
//
//   * "query-steps/s"       — throughput, tolerance-gated; the n=16k churn
//     row is the tentpole target (≥3× over the pre-vectorization engine);
//   * "messages"            — EXACT-gated protocol traffic.
#include <chrono>

#include "bench_common.hpp"
#include "hotpath_workload.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

using namespace topkmon;
using bench::BenchArgs;
using bench::ChurnCell;

namespace {

constexpr TimeStep kWarmupSteps = 64;

struct CellResult {
  double steps_per_sec = 0.0;
  std::uint64_t messages = 0;
  TimeStep steps = 0;
};

CellResult run_cell(const ChurnCell& cell, const BenchArgs& args,
                    telemetry::StepProfiler* profiler) {
  // Per-cell step multipliers keep every row's wall time in the range where
  // the tolerance gate measures code, not scheduler jitter (osc steps pay
  // protocol rounds and are two orders of magnitude slower than the
  // vectorized churn steps).
  const TimeStep mult = cell.kind == bench::ChurnKind::kOsc ? 1
                        : cell.n <= 1024                    ? 64
                                                            : 8;
  const TimeStep steps = args.steps * mult;
  auto run = bench::make_churn_run(cell, args.seed);
  // Phase timers only on request (see bench_e13_hotpath.cpp).
  run.sim->set_profiler(profiler);
  for (TimeStep t = 0; t < kWarmupSteps; ++t) {
    run.sim->step_with(run.vector_for(t));
  }
  CellResult res;
  const auto start = std::chrono::steady_clock::now();
  for (TimeStep t = 0; t < steps; ++t) {
    run.sim->step_with(run.vector_for(kWarmupSteps + t));
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  res.steps = steps;
  res.steps_per_sec = elapsed > 0.0 ? static_cast<double>(steps) / elapsed : 0.0;
  res.messages = run.sim->result().messages;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv, /*with_telemetry=*/true);

  // The active SIMD tier is reported outside the table title: baseline row
  // matching must not depend on the gate runner's ISA.
  std::cout << "simd dispatch: " << simd::active_isa() << "\n";
  Table table("E14 — churn path: steps/s under dense churn (combined, k=8, ε=0.1, " +
              std::to_string(args.steps) + " steps, seed=" +
              std::to_string(args.seed) + ")");
  table.header({"n", "workload", "steps", "query-steps/s", "messages"});

  telemetry::TelemetrySink sink;
  telemetry::StepProfiler* profiler =
      args.telemetry.empty() ? nullptr : &sink.profiler();
  for (const ChurnCell& cell : bench::churn_grid()) {
    const CellResult res = run_cell(cell, args, profiler);
    table.add_row({std::to_string(cell.n), bench::churn_workload_name(cell),
                   std::to_string(res.steps),
                   std::to_string(static_cast<std::uint64_t>(res.steps_per_sec)),
                   std::to_string(res.messages)});
  }
  bench::emit(table, args);
  bench::write_telemetry(args, sink, "bench_e14");
  return 0;
}
