// EngineShard — one worker's slice of the query set.
//
// A shard owns the Simulators (and through them the SimContexts) of the
// queries assigned to it and advances them sequentially within a time step;
// different shards run concurrently on the thread pool. Each query carries
// the window length of its view; on the first step the shard resolves each
// query's view to a stable StepSnapshot::View pointer, so the per-step inner
// loop hands every simulator its view's current vector, window expirations
// and shared σ(t) through Simulator::step_on without vector construction.
// Because every query carries its own derived RNG streams and the only
// cross-shard touchpoints (SharedProbe, StepSnapshot sigma cache) are
// schedule-independent, results do not depend on the shard partition or
// thread count.
#pragma once

#include <memory>
#include <vector>

#include "engine/query.hpp"
#include "engine/snapshot.hpp"
#include "sim/simulator.hpp"
#include "telemetry/profiler.hpp"

namespace topkmon {

class EngineShard {
 public:
  void add(QueryHandle handle, std::size_t window, std::unique_ptr<Simulator> sim);

  /// Advances every owned query by one step on its window's view of the
  /// shared snapshot (σ comes from the snapshot's shared cache).
  void advance(StepSnapshot& snapshot);

  /// Arms per-phase profiling: the shard times its whole advance under
  /// Phase::kShardAdvance and hands the (single-writer — shards never share
  /// profilers) profiler to each owned simulator for the inner phases.
  void set_profiler(telemetry::StepProfiler* prof);

  std::size_t size() const { return sims_.size(); }
  QueryHandle handle(std::size_t i) const { return handles_[i]; }
  Simulator& sim(std::size_t i) { return *sims_[i]; }
  const Simulator& sim(std::size_t i) const { return *sims_[i]; }

 private:
  std::vector<QueryHandle> handles_;
  std::vector<std::size_t> windows_;  ///< per query, parallel to sims_
  std::vector<std::unique_ptr<Simulator>> sims_;
  /// Per query: its window's snapshot view, resolved once on the first step.
  std::vector<const StepSnapshot::View*> views_;
  telemetry::StepProfiler* profiler_ = nullptr;
};

}  // namespace topkmon
