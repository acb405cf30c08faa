// Parallel sweep runner: evaluates labelled experiment cells across a
// thread pool (deterministic — each cell derives its own RNG streams) and
// renders paper-style tables.
//
// Every cell runs through run_experiment_trial: one Simulator and one offline
// OPT per (cell, trial), so the OPT is evaluated on exactly the stream that
// cell's protocol saw (windowed, fault-degraded or adversary-generated).
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
/// times its simulator into a worker-local profiler, and the locals are
/// merged into the sink's profiler under a lock, so the aggregate is
/// deterministic in totals regardless of the claim order. Results are
/// bit-identical with or without a sink.
std::vector<ExperimentResult> run_sweep(const std::vector<SweepRow>& rows,
                                        std::size_t threads = 0,
                                        telemetry::TelemetrySink* sink = nullptr);

}  // namespace topkmon
