// MonitoringEngine — shard-parallel serving of many concurrent top-k queries
// over one node fleet.
//
// The paper's protocols monitor a single query; a production deployment
// serves many simultaneous top-k-position queries with different (k, ε) over
// the same distributed streams. The engine multiplexes Q independent queries
// (each its own protocol instance, SimContext, filters, and output) over ONE
// shared stream of observation vectors, in lockstep per time step:
//
//   1. One FleetPipeline (generator + faults) produces the step's value
//      snapshot once (not once per query as with one-Simulator-per-query).
//   2. Queries, partitioned into shards, advance in parallel on the thread
//      pool via Simulator::step_on; each shard owns its queries'
//      Simulators/SimContexts, configured with the query's real k, ε, W and
//      fault schedule but holding no node-side state of their own.
//   3. probe_top traffic is batched through a SharedProbe: the global top-m
//      ranking is computed and accounted once per step and reused by every
//      query that probes (see engine/shared_probe.hpp; disable with
//      `share_probes = false` for per-query accounting identical to
//      standalone Simulators).
//   4. Sliding-window queries (QuerySpec::window, src/model/window.hpp) are
//      served from per-window views of the shared snapshot: each distinct W
//      maintains its window maxima, sort, σ cache, and probe channel once
//      per step, shared by every query of that W.
//
// Determinism: per-query seeds derive from the engine seed via
// splitmix_combine, and the shared probe is schedule-independent, so results
// are bit-identical for any thread count or shard partition.
//
// Adaptive adversarial generators see the AdversaryView of query 0 (the
// reference query); with many concurrent queries there is no single
// algorithm state to adapt against, so the adversary torments the first.
#pragma once

#include <memory>
#include <vector>

#include "engine/query.hpp"
#include "engine/shard.hpp"
#include "engine/shared_probe.hpp"
#include "engine/snapshot.hpp"
#include "engine/stats.hpp"
#include "faults/schedule.hpp"
#include "model/fleet_pipeline.hpp"
#include "sim/stats_snapshot.hpp"
#include "sim/stream.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "util/thread_pool.hpp"

namespace topkmon::telemetry {
class TelemetrySink;
}

namespace topkmon {

struct EngineConfig {
  std::size_t threads = 0;  ///< max worker threads (≤ one per query); 0 = hardware concurrency
  std::uint64_t seed = 1;
  bool share_probes = true;  ///< batch probe_top across queries per step

  /// Fault model (src/faults): null = reliable static fleet. The engine
  /// injects churn/straggler effects into the shared snapshot ONCE per step
  /// (queries observe one degraded fleet, not Q independent ones); each
  /// query's SimConfig and the shared probes get the schedule for loss
  /// accounting and membership recovery. An all-zero schedule reproduces
  /// the fault-free engine bit-identically.
  FleetSchedulePtr faults;
};

class MonitoringEngine {
 public:
  MonitoringEngine(EngineConfig cfg, std::unique_ptr<StreamGenerator> gen);
  ~MonitoringEngine();

  MonitoringEngine(const MonitoringEngine&) = delete;
  MonitoringEngine& operator=(const MonitoringEngine&) = delete;

  /// Registers a query; must happen before the first step (query churn is a
  /// planned extension). Returns the dense handle used for result lookup.
  QueryHandle add_query(QuerySpec spec);

  std::size_t query_count() const { return specs_.size(); }
  std::size_t n() const { return pipeline_.n(); }
  TimeStep time() const { return next_t_; }
  const EngineConfig& config() const { return cfg_; }

  /// Advances every query by one time step (t = 0 on the first call).
  void step();

  /// Runs `steps` time steps and returns aggregate + per-query statistics.
  EngineStats run(TimeStep steps);

  /// Statistics of everything executed so far: the engine-wide total (the
  /// same one attach_telemetry publishes every step) plus the per-query
  /// breakdown.
  EngineStats stats() const;

  /// Per-query introspection (valid once the engine has started).
  const Simulator& query_sim(QueryHandle h) const;
  const OutputSet& output(QueryHandle h) const;

  /// The query's capability surface (sim/protocol.hpp), or nullptr when its
  /// protocol serves only top-k positions. Valid once the engine has started.
  const QueryCapabilities* capabilities(QueryHandle h) const {
    return query_sim(h).protocol().capabilities();
  }

  /// The query's capability surface iff it serves `kind`, else nullptr.
  const QueryCapabilities* capability(QueryHandle h, QueryKind kind) const {
    return capability_for(query_sim(h).protocol(), kind);
  }

  /// The query's k-select surface, or nullptr when its protocol does not
  /// serve QueryKind::kKSelect. Valid once the engine has started.
  const QueryCapabilities* kselect(QueryHandle h) const {
    return capability(h, QueryKind::kKSelect);
  }

  /// Attaches a telemetry sink: registers the engine's metric namespace
  /// (comm.*, engine.*, faults.*, window.*), arms the engine-loop profiler
  /// (generator / fault-inject / snapshot phases) plus one single-writer
  /// profiler per shard (Phase::kShardAdvance and the per-simulator inner
  /// phases), and publishes the engine-wide total — the one stats()
  /// reports — into the registry after every step.
  /// Must precede the first step; the sink must outlive the engine.
  /// Publishing only reads existing counters, so results stay bit-identical.
  void attach_telemetry(telemetry::TelemetrySink* sink);

 private:
  void ensure_started();
  void publish_telemetry();

  /// The one engine-wide total behind stats() and publish_telemetry():
  /// every query's CommStats and every shared probe channel summed once,
  /// stale reads from the pipeline, window expirations from the snapshot.
  /// Allocation-free — the per-query breakdown is left empty.
  EngineStats aggregate() const;

  /// The shared probe channel of one window length: queries with the same W
  /// observe the same windowed fleet, so their probe_top traffic batches;
  /// queries with different W ask about different value vectors and need
  /// separate channels. probes_[0] is always the unwindowed channel and is
  /// seeded exactly as the pre-window engine seeded its single probe, so
  /// all-unwindowed engines stay bit-identical.
  struct WindowProbe {
    std::size_t window;
    std::unique_ptr<SharedProbe> probe;
  };

  /// The probe channel serving window length `window`, created on first use.
  SharedProbe& probe_for(std::size_t window);

  EngineConfig cfg_;
  FleetPipeline pipeline_;  ///< generator + faults; windows are snapshot views
  std::vector<WindowProbe> probes_;
  StepSnapshot step_snapshot_;

  std::vector<QuerySpec> specs_;                     ///< handle order
  std::vector<std::unique_ptr<Simulator>> pending_;  ///< until ensure_started

  std::vector<EngineShard> shards_;
  /// handle -> (shard index, position within shard); valid once started.
  std::vector<std::pair<std::size_t, std::size_t>> locate_;

  std::unique_ptr<ThreadPool> pool_;  ///< one worker per shard; null = run shards inline
  TimeStep next_t_ = 0;
  double elapsed_sec_ = 0.0;
  bool started_ = false;

  /// Registry ids of the engine's metric namespace (attach_telemetry): the
  /// shared StatsSnapshot block plus the engine-specific aggregates.
  struct TelemetryIds {
    StatsSnapshotIds stats;
    telemetry::MetricId step, queries;
    telemetry::MetricId query_messages, shared_probe_messages, total_messages;
    telemetry::MetricId probe_calls, probe_ranks_computed;
  };
  telemetry::TelemetrySink* telemetry_ = nullptr;
  telemetry::StepProfiler* profiler_ = nullptr;  ///< engine-loop phases
  TelemetryIds ids_{};
};

}  // namespace topkmon
