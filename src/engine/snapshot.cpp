#include "engine/snapshot.hpp"

#include "util/assert.hpp"

namespace topkmon {

StepSnapshot::StepSnapshot() {
  views_.push_back(std::make_unique<View>(kInfiniteWindow));
}

void StepSnapshot::add_window(std::size_t window, std::size_t n) {
  if (window == kInfiniteWindow) return;
  TOPKMON_ASSERT_MSG(!started_, "windows must register before the first step");
  for (const auto& v : views_) {
    if (v->window == window) return;
  }
  auto v = std::make_unique<View>(window);
  v->fleet = std::make_unique<FleetState>(n, window);
  views_.push_back(std::move(v));
}

void StepSnapshot::begin_step(TimeStep t, const ValueVector& values) {
  if (!started_) {
    started_ = true;
    n_ = values.size();
    for (auto& v : views_) {
      if (!v->fleet) {
        v->fleet = std::make_unique<FleetState>(n_, kInfiniteWindow);
      }
      v->order = &v->fleet->order();
    }
  }
  for (auto& v : views_) {
    WindowedValueModel* wm = v->fleet->window();
    v->values = wm ? &wm->push(t, values) : &values;
    // σ is a pure function of the values: a view whose vector did not
    // change keeps its cached σ, so a quiescent step costs one diff pass.
    if (v->order->update(*v->values)) v->sigma_cache.clear();
  }
}

StepSnapshot::View& StepSnapshot::view_for(std::size_t window) {
  for (auto& v : views_) {
    if (v->window == window) return *v;
  }
  TOPKMON_ASSERT_MSG(false, "window length was never registered");
  return *views_.front();  // unreachable
}

const StepSnapshot::View& StepSnapshot::view_for(std::size_t window) const {
  return const_cast<StepSnapshot*>(this)->view_for(window);
}

const ValueVector& StepSnapshot::values(std::size_t window) const {
  const View& v = view_for(window);
  TOPKMON_ASSERT(v.values != nullptr);
  return *v.values;
}

const StepSnapshot::View* StepSnapshot::view(std::size_t window) const {
  return &view_for(window);
}

std::size_t StepSnapshot::sigma(std::size_t window, std::size_t k, double epsilon) {
  View& v = view_for(window);
  TOPKMON_ASSERT(v.order != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : v.sigma_cache) {
    if (e.k == k && e.epsilon == epsilon) return e.sigma;
  }
  const std::size_t s = v.order->sigma(k, epsilon);
  v.sigma_cache.push_back({k, epsilon, s});
  return s;
}

std::uint64_t StepSnapshot::window_expirations() const {
  std::uint64_t total = 0;
  for (const auto& v : views_) {
    if (v->fleet && v->fleet->window()) {
      total += v->fleet->window()->total_expirations();
    }
  }
  return total;
}

}  // namespace topkmon
