// Parallel sweep runner: evaluates labelled experiment cells across a
// thread pool (deterministic — each cell derives its own RNG streams) and
// renders paper-style tables.
//
// Cell grids are routed through the MonitoringEngine where the model allows
// it: cells that share one stream configuration (same generator, n, k, ε,
// steps, seed — typically a protocol comparison sweep) are multiplexed as
// concurrent queries over a single fleet, so the generator runs once per
// step per trial and the offline OPT is evaluated once per trial instead of
// once per cell. Per-cell message accounting is preserved bit-for-bit
// (probe sharing stays off on this path and every query uses the exact seed
// a standalone Simulator would); cells on adaptive adversarial streams
// (lb_adversary, phase_torture) keep the one-Simulator-per-cell path so the
// adversary adapts against exactly the protocol it torments.
#pragma once

#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

namespace topkmon {

struct SweepRow {
  std::string label;
  ExperimentConfig cfg;
};

/// Runs all rows (cells) on a pool; results returned in row order. `sink`
/// (optional) collects per-phase step profiles: every (cell × trial) task
/// times its run into a worker-local profiler — solo trials directly,
/// engine-grouped trials through the engine's own telemetry — and the locals
/// are merged into the sink's profiler under a lock, so the aggregate is
/// deterministic in totals regardless of the claim order. Results are
/// bit-identical with or without a sink.
std::vector<ExperimentResult> run_sweep(const std::vector<SweepRow>& rows,
                                        std::size_t threads = 0,
                                        telemetry::TelemetrySink* sink = nullptr);

}  // namespace topkmon
