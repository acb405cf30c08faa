// FleetState — the server-side state of one fleet view: the optional
// sliding-window model and the lazily built σ-path shadow (TopKOrder).
//
// Two owners hold one: each engine snapshot view (StepSnapshot), which
// needs the window maxima of its window length and the order answering its
// σ(t), and the standalone Simulator, which needs the order only. Node-side
// buffers are not here: the generator's staging vector, the fault
// injector's effective vector and the pipeline's window model live in the
// FleetPipeline stages that write them (model/fleet_pipeline.hpp).
//
// The order is created lazily: an engine query Simulator, whose σ(t) comes
// from the shared snapshot, builds nothing at all.
#pragma once

#include <memory>

#include "model/topk_order.hpp"
#include "model/types.hpp"
#include "model/window.hpp"

namespace topkmon {

class FleetState {
 public:
  /// State for an n-node fleet; `window` ≥ 1 additionally owns the sliding
  /// window rings (kInfiniteWindow = unwindowed).
  explicit FleetState(std::size_t n, std::size_t window = kInfiniteWindow);

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
  std::unique_ptr<WindowedValueModel> window_;
  std::unique_ptr<TopKOrder> order_;
};

}  // namespace topkmon
