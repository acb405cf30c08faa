#include "sim/context.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"
#include "util/simd.hpp"

namespace topkmon {

SimContext::SimContext(SimParams params, std::uint64_t protocol_seed)
    : params_(params),
      rng_(Rng::derive(protocol_seed, /*stream_id=*/0xC0FFEE)),
      values_(params.n, 0),
      filter_lo_(params.n, Filter::all().lo),
      filter_hi_(params.n, Filter::all().hi),
      violating_(params.n, 0),
      violators_(params.n) {
  TOPKMON_ASSERT(params.n > 0);
  TOPKMON_ASSERT(params.k >= 1 && params.k <= params.n);
  TOPKMON_ASSERT(params.epsilon >= 0.0 && params.epsilon < 1.0);
}

Value SimContext::report_value(NodeId i, MessageTag tag) {
  TOPKMON_ASSERT(i < n());
  stats_.count(MessageKind::kNodeToServer, tag);
  return values_[i];
}

void SimContext::unicast(NodeId i, MessageTag tag) {
  TOPKMON_ASSERT(i < n());
  stats_.count(MessageKind::kServerToNode, tag);
}

void SimContext::set_filter_unicast(NodeId i, const Filter& f, MessageTag tag) {
  TOPKMON_ASSERT(i < n());
  stats_.count(MessageKind::kServerToNode, tag);
  install_filter(i, f);
}

void SimContext::broadcast(MessageTag tag) {
  stats_.count(MessageKind::kBroadcast, tag);
}

ExistenceResult SimContext::existence_over(std::span<const NodeId> active,
                                           MessageTag tag) {
  ExistenceResult res =
      ExistenceProtocol::run_active(n(), active, node_value(), rng_);
  stats_.count(MessageKind::kNodeToServer, tag, res.messages);
  stats_.add_rounds(res.rounds);
  return res;
}

ExistenceResult SimContext::collect_violations() {
  TOPKMON_PHASE_SCOPE(profiler_, telemetry::Phase::kViolationCollect);
  if (violating_count_ == 0) {
    // Quiescent fast path: with an empty active set the EXISTENCE schedule
    // runs all rounds in silence and draws no randomness — reproduce its
    // result and accounting directly, skipping the O(n) node sweep.
    ExistenceResult res;
    res.rounds = ExistenceProtocol::max_rounds(n());
    stats_.count(MessageKind::kNodeToServer, MessageTag::kViolation, 0);
    stats_.add_rounds(res.rounds);
    return res;
  }
  // The incremental bits make the active list one vectorized byte scan.
  const std::size_t active =
      simd::collect_nonzero(violating_.data(), n(), violators_.data());
  TOPKMON_ASSERT(active == violating_count_);
  return existence_over({violators_.data(), active}, MessageTag::kViolation);
}

std::vector<SimContext::ProbeResult> SimContext::probe_top(std::size_t m) {
  if (probe_sharer_ != nullptr) {
    // The global top-m is query-independent; one shared probe per step serves
    // every query, and the sharer accounts its cost exactly once.
    return probe_sharer_->top(m);
  }
  std::vector<ProbeResult> out;
  pool_.resize(n());
  std::iota(pool_.begin(), pool_.end(), NodeId{0});
  while (out.size() < m && probe_next_rank(n(), pool_, active_, node_value(),
                                           out, stats_, rng_)) {
  }
  return out;
}

void SimContext::rederive_violations() {
  violating_count_ = simd::violation_mask(values_.data(), filter_lo_.data(),
                                          filter_hi_.data(), n(), violating_.data());
}

void SimContext::advance_time(const ValueVector& values) {
  TOPKMON_ASSERT(values.size() == n());
  if (track_filters_) {
    // The dirty set describes one protocol step; a new observation vector
    // starts the next one.
    clear_dirty_filters();
  }
  // The range guard is one vectorized max scan instead of a per-node branch;
  // it also certifies the exactness precondition of the violation pass's
  // u64 → double lane conversion.
  TOPKMON_ASSERT_MSG(simd::max_value(values.data(), n()) <= kMaxObservableValue,
                     "generator exceeded kMaxObservableValue");
  std::copy(values.begin(), values.end(), values_.begin());
  // The bit array is what makes the per-step violation sweep
  // (collect_violations) O(1) on quiescent steps.
  rederive_violations();
  ++time_;
}

}  // namespace topkmon
