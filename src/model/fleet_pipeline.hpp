// FleetPipeline — the node side of the model: stream → faults → window.
//
// The paper's model separates the nodes, which observe streams, from the
// server, which runs the filter protocol. Every driver (standalone
// Simulator, MonitoringEngine, networked NodeHost and coordinator) builds
// its node side from this one class. Per step it turns t into the
// *monitored* vector: the optional generator writes the true vector (RNG
// stream 0x5EED of the run seed, so drivers seeded alike replay one stream)
// unless the caller supplies it; the optional FaultInjector rewrites it into
// the effective vector the fleet holds; the optional window model takes
// per-node window maxima. Each stage owns its buffer: the pipeline the
// generator's staging vector, the injector its effective vector, the window
// model its rings. Stages run under the caller's profiler phases
// (kGenerator, kFaultInject, kWindowMerge); an absent stage costs and
// allocates nothing, and a steady-state step is allocation-free.
#pragma once

#include <cstdint>
#include <memory>

#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "model/window.hpp"
#include "sim/stream.hpp"
#include "telemetry/profiler.hpp"
#include "util/rng.hpp"

namespace topkmon {

class FleetPipeline {
 public:
  /// Pipeline over caller-supplied true vectors; null faults = reliable
  /// fleet, kInfiniteWindow = unwindowed.
  FleetPipeline(std::size_t n, FleetSchedulePtr faults, std::size_t window);

  /// Pipeline that also generates the true vector from `gen` (non-null).
  FleetPipeline(std::unique_ptr<StreamGenerator> gen, std::uint64_t seed,
                FleetSchedulePtr faults, std::size_t window);

  std::size_t n() const { return n_; }

  /// Generates step t (init at t = 0, `view` feeds adaptive generators
  /// later) and returns the monitored vector. Consecutive t from 0.
  const ValueVector& step(TimeStep t, const AdversaryView& view,
                          telemetry::StepProfiler* prof);

  /// Same for a caller-supplied true vector (size n). The result is valid
  /// until the next step.
  const ValueVector& step(TimeStep t, const ValueVector& truth,
                          telemetry::StepProfiler* prof);

  /// The last step's effective vector: after faults, before the window.
  const ValueVector& effective() const { return *effective_; }

  /// The last step's monitored vector: what step() returned.
  const ValueVector& monitored() const { return *monitored_; }

  /// Observations served stale in the last step: whole fleet, node range
  /// [lo, hi), and all steps so far.
  std::uint64_t stale_reads() const { return injector_ ? injector_->last_stale() : 0; }
  std::uint64_t stale_reads(std::size_t lo, std::size_t hi) const {
    return injector_ ? injector_->stale_reads(lo, hi) : 0;
  }
  std::uint64_t total_stale_reads() const {
    return injector_ ? injector_->total_stale() : 0;
  }

  /// Nodes whose window maximum expired in the last step (0 unwindowed).
  std::uint64_t window_expirations() const {
    return window_ ? window_->last_expirations() : 0;
  }

 private:
  std::size_t n_;
  std::unique_ptr<StreamGenerator> gen_;  ///< null = caller supplies truth
  Rng gen_rng_;
  ValueVector staging_;  ///< the generator's true vector (empty without one)
  std::unique_ptr<FaultInjector> injector_;  ///< null = reliable fleet
  std::unique_ptr<WindowedValueModel> window_;  ///< null = unwindowed
  const ValueVector* effective_ = nullptr;
  const ValueVector* monitored_ = nullptr;
};

}  // namespace topkmon
