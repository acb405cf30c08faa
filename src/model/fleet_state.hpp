// FleetState — structure-of-arrays per-fleet state for the batched hot path.
//
// A FleetPipeline step (model/fleet_pipeline.hpp) needs, per fleet: a staging
// buffer for the generator's raw vector, an effective-value buffer for the
// fault injector's rewrite, per-node fault flags, and the sliding-window
// maxima (when windowed); a σ path needs the shadow of the last vector that
// answers σ(t) (TopKOrder). FleetState owns all of them as contiguous
// buffers allocated once, so per-step work writes in place instead of
// constructing vectors — the zero-allocation invariant of the steady-state
// step (see util/alloc_counter.hpp) hangs off this class.
//
// Layout is SoA: values, flags, window rings, and the σ shadow are separate
// flat arrays rather than per-node structs, keeping the per-step passes
// (diff scan, window roll, violation check) on dense cache lines.
//
// Buffers are created lazily: a pipeline never builds an order, and an
// engine query Simulator, whose σ(t) comes from the shared snapshot, builds
// nothing at all.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "model/topk_order.hpp"
#include "model/types.hpp"
#include "model/window.hpp"

namespace topkmon {

/// Per-node fault flags for one step (written by the FaultInjector into the
/// fleet's flag buffer; all-zero on the fault-free path).
enum FaultFlag : std::uint8_t {
  kFaultNone = 0,
  kFaultStale = 1u << 0,    ///< observation served from the past this step
  kFaultOffline = 1u << 1,  ///< node is outside the fleet this step
};

class FleetState {
 public:
  /// State for an n-node fleet; `window` ≥ 1 additionally owns the sliding
  /// window rings (kInfiniteWindow = unwindowed). The value/flag buffers are
  /// sized lazily on first access — an owner that only consults the window
  /// model and an order (the engine's per-window snapshot views) pays for
  /// exactly those.
  explicit FleetState(std::size_t n, std::size_t window = kInfiniteWindow);

  std::size_t n() const { return n_; }

  /// Generator staging buffer: the raw (true) observation vector of the
  /// step is written here in place.
  ValueVector& staging() {
    if (staging_.empty()) staging_.assign(n_, 0);
    return staging_;
  }

  /// Effective-value buffer: the fault injector rewrites the true vector
  /// into what the fleet actually observes, in place.
  ValueVector& effective() {
    if (effective_.empty()) effective_.assign(n_, 0);
    return effective_;
  }

  /// Per-node FaultFlag bits for the current step.
  std::span<std::uint8_t> fault_flags() {
    if (flags_.empty()) flags_.assign(n_, 0);
    return {flags_.data(), flags_.size()};
  }
  std::span<const std::uint8_t> fault_flags() const {
    return {flags_.data(), flags_.size()};
  }

  /// The sliding-window model (null when unwindowed). Its output vector —
  /// the per-node window maxima — is the model's contiguous `values()`.
  WindowedValueModel* window() { return window_.get(); }
  const WindowedValueModel* window() const { return window_.get(); }

  /// Shadow of the fleet's current monitored values — the σ(t) path of the
  /// standalone Simulator and of each engine snapshot view. Created on first
  /// use (one allocation, then allocation-free). order_if_ready() stays for
  /// perfbench, which reads the order's (always zero) repair counters.
  TopKOrder& order();
  const TopKOrder* order_if_ready() const { return order_.get(); }

 private:
  std::size_t n_;
  ValueVector staging_;             ///< lazily sized (see class comment)
  ValueVector effective_;           ///< lazily sized
  std::vector<std::uint8_t> flags_;  ///< lazily sized
  std::unique_ptr<WindowedValueModel> window_;
  std::unique_ptr<TopKOrder> order_;
};

}  // namespace topkmon
