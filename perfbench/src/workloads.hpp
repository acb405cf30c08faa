// The benchmark's three closed-loop workloads over the library's public entry
// points: net_quiet (NetCoordinator + NodeHost threads over loopback
// transports), sim_churn (a standalone Simulator under fleet churn) and
// engine_bursty (a MonitoringEngine serving a mixed query set).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< scales the fixed number of timed steps
  bool trace = false;     ///< also run the traced pass and report per-layer metrics
  std::string spans_dir;  ///< where the traced pass writes its spans ("" = nowhere)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One correctness check of a run and its verdict.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Report {
  std::uint64_t attempted = 0;  ///< steps run (set-up warm-up + timed)
  std::uint64_t failed = 0;     ///< steps whose output failed a check
  bool correct = false;
  std::vector<Metric> end_to_end;  ///< measured with tracing off
  std::vector<Metric> per_layer;   ///< from the traced pass (trace runs only)
  std::vector<Check> checks;       ///< verification and transparency checks
  std::vector<std::string> notes;  ///< sample counts and check verdicts
};

std::vector<std::string> workload_names();

/// Runs one workload: set-up, the untimed-checked timed pass and, with
/// opts.trace, the traced pass. `measured` is called with the end-to-end
/// metrics as soon as the timed pass is over and before the verification
/// pass, so a verification that aborts the process still leaves them behind.
/// Throws std::runtime_error on an unknown workload or a broken run.
Report run_workload(const RunOptions& opts,
                    const std::function<void(const Report&)>& measured);

}  // namespace perfbench
