// E13 — batched hot path: steps/s and allocations/step over the workload
// grid n × {instantaneous, W=256} × {fault-free, churn}.
//
// The cells come from bench/hotpath_workload.hpp; the table + JSON output
// lets scripts/check_bench.py gate it against bench/bench_baseline.json:
//
//   * "query-steps/s" — throughput, tolerance-gated; the n=16k quiescent
//     row is the tentpole target (≥3× over the pre-refactor engine);
//   * "allocs/step"   — EXACT-gated; fault-free steady state must be 0 (the
//     zero-allocation invariant), measured with the counting allocator hook
//     (util/alloc_counter.hpp; build with -DTOPKMON_COUNT_ALLOCS=ON). The
//     column reads "off" without the hook and "n/a" on churn rows, where
//     deterministic recovery bursts allocate by design;
//   * "messages"      — EXACT-gated protocol traffic (bit-reproducible).
//
// A second table times the stream generators alone, at the fleet sizes of
// the perfbench workloads that drive them: random_walk (net_quiet,
// sim_churn) and zipf_bursty (engine_bursty). Its "query-steps/s" is
// tolerance-gated like the first table's; its "checksum" of the final
// vector and Rng state is EXACT-gated, so a faster generator must produce
// the same values from the same draws. The zipf_bursty row is the control:
// a change to the random walk should move only the random_walk rows' speed.
// Its values come from std::pow, as do the EXACT message counts of every
// zipf_bursty table (E10, E12, E17), so its checksum adds no new dependence
// on the math library.
#include <algorithm>
#include <chrono>

#include "bench_common.hpp"
#include "hotpath_workload.hpp"
#include "streams/registry.hpp"
#include "util/alloc_counter.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

using namespace topkmon;
using bench::BenchArgs;
using bench::HotPathCell;

namespace {

constexpr TimeStep kWarmupSteps = 64;

struct CellResult {
  double steps_per_sec = 0.0;
  std::uint64_t allocs = 0;  ///< over the measured (post-warmup) phase
  std::uint64_t messages = 0;
  TimeStep steps = 0;  ///< measured steps (args.steps × per-cell multiplier)
};

CellResult run_cell(const HotPathCell& cell, const BenchArgs& args,
                    telemetry::StepProfiler* profiler) {
  // Small fleets step in microseconds; scale their step count up so every
  // cell's wall time is long enough for the ±tolerance throughput gate to
  // measure code, not scheduler jitter (churn cells pay deterministic
  // recovery bursts and need far fewer steps for the same wall time).
  // Deterministic per cell, so the exact-gated counters stay comparable
  // across runs.
  const TimeStep mult = cell.n <= 64     ? (cell.churn ? 64 : 1024)
                        : cell.n <= 1024 ? (cell.churn ? 8 : 128)
                                         : (cell.churn ? 1 : 16);
  const TimeStep steps = args.steps * mult;
  auto run = bench::make_hotpath_run(cell, args.seed, kWarmupSteps + steps);
  // Phase timers only on request: the scoped clock reads would dominate the
  // small-n rows and skew the tolerance gate against a profile-free baseline.
  run.sim->set_profiler(profiler);
  for (TimeStep t = 0; t < kWarmupSteps; ++t) {
    run.sim->step_with(run.values);
  }
  CellResult res;
  AllocProbe probe;
  const auto start = std::chrono::steady_clock::now();
  for (TimeStep t = 0; t < steps; ++t) {
    run.sim->step_with(run.values);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  res.allocs = probe.delta();
  res.steps = steps;
  res.steps_per_sec = elapsed > 0.0 ? static_cast<double>(steps) / elapsed : 0.0;
  res.messages = run.sim->result().messages;
  return res;
}

struct StreamCell {
  const char* kind;
  std::size_t n;
  Value delta;  ///< value scale, as the perfbench workload sets it
};

constexpr StreamCell kStreamCells[] = {
    {"random_walk", 2048, Value{1} << 20},
    {"random_walk", 16384, Value{1} << 20},
    {"zipf_bursty", 2048, 65536},
};

struct StreamResult {
  double steps_per_sec = 0.0;
  std::uint64_t checksum = 0;
  TimeStep steps = 0;
};

StreamResult run_stream_cell(const StreamCell& cell, const BenchArgs& args) {
  StreamSpec spec;
  spec.kind = cell.kind;
  spec.n = cell.n;
  spec.delta = cell.delta;
  const auto gen = make_stream(spec);
  // Every cell steps 32768 node-updates per requested step, so the rows
  // take comparable wall time.
  const TimeStep steps = args.steps * static_cast<TimeStep>(32768 / cell.n);
  Rng rng(splitmix_combine(args.seed, cell.n));
  ValueVector values(cell.n);
  gen->init(values, rng);
  const OutputSet output;
  const AdversaryView view{NodeRange{}, &output, 1, 0.1};
  for (TimeStep t = 1; t <= kWarmupSteps; ++t) {
    gen->step(t, view, values, rng);
  }
  StreamResult res;
  const auto start = std::chrono::steady_clock::now();
  for (TimeStep t = 1; t <= steps; ++t) {
    gen->step(kWarmupSteps + t, view, values, rng);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  res.steps = steps;
  res.steps_per_sec = elapsed > 0.0 ? static_cast<double>(steps) / elapsed : 0.0;
  for (const Value v : values) res.checksum = splitmix_combine(res.checksum, v);
  for (const std::uint64_t w : rng.state()) res.checksum = splitmix_combine(res.checksum, w);
  // 52 bits, so the JSON number holds the checksum exactly.
  res.checksum >>= 12;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv, /*with_telemetry=*/true);

  Table table("E13 — hot path: steps/s + allocs/step (combined, k=8, ε=0.1, " +
              std::to_string(args.steps) + " steps, seed=" +
              std::to_string(args.seed) + ")");
  table.header({"n", "workload", "steps", "query-steps/s", "allocs/step", "messages"});

  telemetry::TelemetrySink sink;
  telemetry::StepProfiler* profiler =
      args.telemetry.empty() ? nullptr : &sink.profiler();
  for (const HotPathCell& cell : bench::hotpath_grid()) {
    const CellResult res = run_cell(cell, args, profiler);
    std::string allocs_cell;
    if (cell.churn) {
      // Recovery bursts allocate by design; the count is an implementation
      // detail of the standard library, not a gated invariant.
      allocs_cell = "n/a";
    } else if (!alloc_counting_active()) {
      allocs_cell = "off";
    } else {
      allocs_cell = std::to_string(
          res.allocs / static_cast<std::uint64_t>(std::max<TimeStep>(res.steps, 1)));
      TOPKMON_ASSERT_MSG(res.allocs == 0,
                         "zero-allocation invariant violated on a fault-free "
                         "steady-state hot-path cell");
    }
    table.add_row({std::to_string(cell.n), bench::hotpath_workload_name(cell),
                   std::to_string(res.steps),
                   std::to_string(static_cast<std::uint64_t>(res.steps_per_sec)),
                   allocs_cell, std::to_string(res.messages)});
  }
  bench::emit(table, args);

  Table streams("E13 — stream generators: steps/s + checksum (" +
                std::to_string(args.steps) + " steps × 32768/n, seed=" +
                std::to_string(args.seed) + ")");
  streams.header({"stream", "n", "steps", "query-steps/s", "checksum"});
  for (const StreamCell& cell : kStreamCells) {
    const StreamResult res = run_stream_cell(cell, args);
    streams.add_row({cell.kind, std::to_string(cell.n), std::to_string(res.steps),
                     std::to_string(static_cast<std::uint64_t>(res.steps_per_sec)),
                     std::to_string(res.checksum)});
  }
  bench::emit(streams, args);
  bench::write_telemetry(args, sink, "bench_e13");
  return 0;
}
