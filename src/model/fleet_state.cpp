#include "model/fleet_state.hpp"

#include "util/assert.hpp"

namespace topkmon {

FleetState::FleetState(std::size_t n, std::size_t window) : n_(n) {
  TOPKMON_ASSERT(n > 0);
  if (window != kInfiniteWindow) {
    window_ = std::make_unique<WindowedValueModel>(n, window);
  }
}

TopKOrder& FleetState::order() {
  if (!order_) {
    order_ = std::make_unique<TopKOrder>(n_);
  }
  return *order_;
}

}  // namespace topkmon
