#include "faults/injector.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace topkmon {

FaultInjector::FaultInjector(FleetSchedulePtr schedule)
    : schedule_(std::move(schedule)) {
  TOPKMON_ASSERT(schedule_ != nullptr);
  const std::size_t n = schedule_->n();
  effective_.assign(n, 0);
  if (schedule_->max_delay() > 0) {
    ring_.assign(schedule_->max_delay() + 1, ValueVector(n, 0));
    for (NodeId i = 0; i < n; ++i) {
      if (schedule_->delay(i) > 0) {
        stragglers_.push_back(i);
      }
    }
  }
  if (!schedule_->events().empty()) {
    offline_ids_.reserve(n);
    frozen_.assign(n, 0);
  }
}

bool FaultInjector::offline(NodeId i) const {
  return std::binary_search(offline_ids_.begin(), offline_ids_.end(), i);
}

void FaultInjector::advance_membership(TimeStep t) {
  const auto& events = schedule_->events();
  while (event_cursor_ < events.size() && events[event_cursor_].step <= t) {
    const FleetEvent& ev = events[event_cursor_++];
    const auto it =
        std::lower_bound(offline_ids_.begin(), offline_ids_.end(), ev.node);
    const bool was_offline = it != offline_ids_.end() && *it == ev.node;
    if (was_offline == !ev.join) continue;
    if (ev.join) {
      offline_ids_.erase(it);
    } else {
      offline_ids_.insert(it, ev.node);
    }
  }
}

const ValueVector& FaultInjector::transform(TimeStep t, const ValueVector& truth) {
  TOPKMON_ASSERT(truth.size() == schedule_->n());
  TOPKMON_ASSERT_MSG(t == next_t_, "injector must see consecutive steps");
  ++next_t_;

  // The ring was sized from max_delay() at construction; mutating the shared
  // schedule's delays afterwards would make the lookback read (or divide by)
  // the wrong slot count — fail loudly instead.
  TOPKMON_ASSERT_MSG(
      schedule_->max_delay() + 1 <= std::max<std::size_t>(ring_.size(), 1),
      "fault schedule delays changed after the injector was constructed");

  // Retain the true vector for straggler lookback (in place: slot t mod D+1).
  if (!ring_.empty()) {
    std::copy(truth.begin(), truth.end(),
              ring_[static_cast<std::size_t>(t) % ring_.size()].begin());
  }

  last_stale_ = 0;
  if (t == 0) {
    std::copy(truth.begin(), truth.end(), effective_.begin());
    return effective_;
  }
  advance_membership(t);

  // Healthy bulk first: save the frozen observations the copy would clobber,
  // stream truth → effective in one pass, then fix up the (few) degraded
  // nodes in place.
  for (std::size_t j = 0; j < offline_ids_.size(); ++j) {
    frozen_[j] = effective_[offline_ids_[j]];
  }
  std::copy(truth.begin(), truth.end(), effective_.begin());
  for (std::size_t j = 0; j < offline_ids_.size(); ++j) {
    const NodeId i = offline_ids_[j];
    // Offline: observation frozen at the previous effective value.
    effective_[i] = frozen_[j];
    ++last_stale_;
  }
  for (const NodeId i : stragglers_) {
    if (offline(i)) continue;
    // The ring covers steps (t − max_delay) .. t; clamp to step 0 early on.
    const std::size_t d = schedule_->delay(i);
    const std::size_t back = std::min<std::size_t>(d, static_cast<std::size_t>(t));
    effective_[i] = ring_[(static_cast<std::size_t>(t) - back) % ring_.size()][i];
    ++last_stale_;
  }
  total_stale_ += last_stale_;
  return effective_;
}

std::uint64_t FaultInjector::stale_reads(std::size_t lo, std::size_t hi) const {
  TOPKMON_ASSERT(lo <= hi && hi <= schedule_->n());
  // At t = 0 (and before the first step) nothing is stale; from t = 1 on the
  // stale nodes are exactly the offline ones plus the online stragglers.
  if (last_stale_ == 0) return 0;
  const auto in_range = [lo, hi](const std::vector<NodeId>& ids) {
    return std::make_pair(std::lower_bound(ids.begin(), ids.end(), lo),
                          std::lower_bound(ids.begin(), ids.end(), hi));
  };
  const auto [off_begin, off_end] = in_range(offline_ids_);
  std::uint64_t stale = static_cast<std::uint64_t>(off_end - off_begin);
  const auto [str_begin, str_end] = in_range(stragglers_);
  for (auto it = str_begin; it != str_end; ++it) {
    stale += !offline(*it);
  }
  return stale;
}

}  // namespace topkmon
