// FaultInjector — applies a FleetSchedule between Stream and Node.
//
// Generators keep producing the *true* observation vector; the injector
// rewrites it into the *effective* vector the fleet actually holds before it
// reaches the nodes:
//
//   * an offline node's observation freezes at the last effective value it
//     held (its stream stops until it rejoins);
//   * a straggler with delay d holds the true value of step max(0, t−d)
//     (a ring of the last max_delay+1 true vectors is retained);
//   * at t = 0 every node holds the true initial value, so degradation only
//     begins once the fleet is running.
//
// The effective vector is just another value stream, so every protocol runs
// unmodified and its correctness/validity contract (checked in strict mode)
// holds with respect to what the nodes really observed. Each observation
// served from the past (offline freeze or positive delay at t ≥ 1) counts as
// one *stale read* — the fault-awareness metric surfaced through
// CommStats/RunResult/EngineStats. Which nodes were stale is read off the
// sorted offline and straggler lists (stale_reads(lo, hi)), not stored.
//
// Hot-path storage: the ring is a fixed array of max_delay+1 preallocated
// vectors written in place (slot = t mod (max_delay+1)), the effective
// vector is the injector's own, sized once at construction, and schedules
// without stragglers skip retention entirely. The per-step apply is batched:
// membership is tracked incrementally (the schedule's event list is consumed
// once, in step order, instead of a per-node binary search every step), the
// healthy bulk of the fleet is one contiguous copy of truth → effective, and
// only the currently-degraded nodes — offline freezes and straggler ring
// reads — are fixed up individually. A transform() in steady state allocates
// nothing, and a fault-free step is exactly one memcpy.
//
// The injector is deterministic and RNG-free: with an all-zero schedule,
// transform() is the identity and the fault-free path is reproduced
// bit-identically.
#pragma once

#include <vector>

#include "faults/schedule.hpp"
#include "model/types.hpp"

namespace topkmon {

class FaultInjector {
 public:
  explicit FaultInjector(FleetSchedulePtr schedule);

  /// Rewrites the step-t true vector into the effective vector, written in
  /// place into the injector's own buffer (the returned reference, valid
  /// until the next call). Must be called once per step with consecutive t
  /// starting at 0.
  const ValueVector& transform(TimeStep t, const ValueVector& truth);

  /// Stale reads produced by the most recent transform() call.
  std::uint64_t last_stale() const { return last_stale_; }

  /// The same count restricted to nodes in [lo, hi).
  std::uint64_t stale_reads(std::size_t lo, std::size_t hi) const;

  /// Stale reads across all steps so far.
  std::uint64_t total_stale() const { return total_stale_; }

  const FleetSchedule& schedule() const { return *schedule_; }

 private:
  /// Applies the schedule's membership toggles for steps ≤ t to the
  /// incremental offline set.
  void advance_membership(TimeStep t);

  /// Whether node i is offline now: a binary search in offline_ids_.
  bool offline(NodeId i) const;

  FleetSchedulePtr schedule_;
  ValueVector effective_;          ///< transform()'s output, n values
  std::vector<ValueVector> ring_;  ///< max_delay+1 preallocated slots (empty
                                   ///< when the schedule has no stragglers)
  std::vector<NodeId> stragglers_;       ///< nodes with delay > 0, ascending
  std::vector<NodeId> offline_ids_;      ///< currently-offline nodes, ascending
  ValueVector frozen_;                   ///< offline values saved across the bulk copy
  std::size_t event_cursor_ = 0;         ///< next unapplied schedule event
  TimeStep next_t_ = 0;
  std::uint64_t last_stale_ = 0;
  std::uint64_t total_stale_ = 0;
};

}  // namespace topkmon
