// StepSnapshot — the engine's shared per-step view of the fleet.
//
// Every query of an engine observes the same observation vector, so
// value-only derived quantities are computed once per step and shared. With
// sliding-window queries (src/model/window.hpp) the snapshot carries one
// *view* per distinct window length W registered before the first step. A
// view owns a FleetState: the per-node window maxima rings (maintained once
// per step — not once per query), the shadow of the view's last vector
// (TopKOrder — the same class the standalone Simulator's σ path keeps), and
// σ(t) per distinct (k, ε) — the validator-side quantity every query's
// Simulator tracks, computed once per view rather than once per query. The
// cache survives steps on which the view's vector did not change. The
// W = kInfiniteWindow view borrows the raw snapshot untouched. All cached
// quantities are pure functions of the snapshot (no randomness), so sharing
// is exact and schedule-independent. Steady-state begin_step allocates
// nothing: view buffers are preallocated and updated in place.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "model/fleet_state.hpp"
#include "model/types.hpp"
#include "model/window.hpp"

namespace topkmon {

class StepSnapshot {
 public:
  /// One per-window view; stable address once the snapshot started (shards
  /// cache pointers to their queries' views).
  struct View {
    explicit View(std::size_t window) : window(window) {}

    /// The step's value vector as queries of this window observe it.
    const ValueVector& current() const { return *values; }

    /// Nodes whose window maximum expired this step (0 unwindowed).
    std::uint64_t expirations() const {
      const WindowedValueModel* wm = fleet ? fleet->window() : nullptr;
      return wm ? wm->last_expirations() : 0;
    }

    std::size_t window = kInfiniteWindow;
    std::unique_ptr<FleetState> fleet;  ///< null for kInfiniteWindow
    const ValueVector* values = nullptr;

    struct SigmaEntry {
      std::size_t k;
      double epsilon;
      std::size_t sigma;
    };
    std::vector<SigmaEntry> sigma_cache;  ///< few distinct (k, ε); linear scan
    TopKOrder* order = nullptr;           ///< set once n is known (first step)
  };

  StepSnapshot();

  /// Registers a window length (idempotent); must happen before the first
  /// begin_step. The unwindowed view (kInfiniteWindow) is always present.
  void add_window(std::size_t window, std::size_t n);

  /// Points the snapshot at the step's observation vector (borrowed; must
  /// outlive the step), advances every windowed view by one step, and
  /// invalidates the σ cache of each view whose vector changed. Called
  /// serially by the engine before shards run, once per step with
  /// consecutive t starting at 0.
  void begin_step(TimeStep t, const ValueVector& values);

  /// The step's value vector as queries with window `window` observe it.
  const ValueVector& values(std::size_t window = kInfiniteWindow) const;

  /// Stable handle to a window's view — shards resolve it once and then
  /// read `view->current()` per step without the per-query window lookup.
  const View* view(std::size_t window) const;

  /// σ(t) for (k, ε) on the view of `window`; cached, thread-safe, and
  /// identical to Oracle::sigma on the same values.
  std::size_t sigma(std::size_t window, std::size_t k, double epsilon);

  /// Window expiries across all views and steps so far (fleet-level metric).
  std::uint64_t window_expirations() const;

 private:
  View& view_for(std::size_t window);
  const View& view_for(std::size_t window) const;

  std::vector<std::unique_ptr<View>> views_;  ///< [0] is the unwindowed view
  std::size_t n_ = 0;  ///< fleet size (fixed by the first begin_step)
  bool started_ = false;
  std::mutex mu_;  ///< guards the sigma caches (shards query concurrently)
};

}  // namespace topkmon
