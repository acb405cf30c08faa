// EngineStats — aggregate + per-query statistics of a MonitoringEngine run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/query.hpp"
#include "sim/simulator.hpp"
#include "sim/stats_snapshot.hpp"
#include "util/table.hpp"

namespace topkmon {

/// One query's view of an engine run: its spec (label and protocol
/// resolved by add_query), its individually accounted communication
/// (RunResult, same semantics as Simulator::result) and its final output set.
struct QueryStats {
  QueryHandle handle = 0;
  QuerySpec spec;
  RunResult run;
  OutputSet output;
};

/// The engine-wide StatsSnapshot — every query's CommStats plus every shared
/// probe channel, summed once by the engine (so `messages` counts query and
/// shared-probe traffic, and kinds, tags and rounds sum to the same total),
/// with the fleet-level stale reads and window expirations — plus the
/// engine-only counters and the per-query breakdown. Net counters stay zero:
/// the engine is in-process.
struct EngineStats : StatsSnapshot {
  std::vector<QueryStats> queries;  ///< in handle order

  std::uint64_t steps = 0;
  std::uint64_t query_messages = 0;         ///< Σ per-query accounted messages
  std::uint64_t shared_probe_messages = 0;  ///< once-per-step shared probing
  std::uint64_t probe_calls = 0;           ///< probe_top requests served shared
  std::uint64_t probe_ranks_computed = 0;  ///< ranks computed (once per step)

  bool windowed = false;  ///< any query with W > 0

  double elapsed_sec = 0.0;
  double steps_per_sec = 0.0;        ///< engine time steps per wall second
  double query_steps_per_sec = 0.0;  ///< steps × Q per wall second (vs serial)

  /// The engine run as the shared StatsSnapshot shape.
  StatsSnapshot totals() const { return *this; }

  /// Per-query breakdown table.
  Table per_query_table(const std::string& title) const;

  /// One-table aggregate summary.
  Table summary_table(const std::string& title) const;
};

}  // namespace topkmon
