#include "protocols/dense_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "model/oracle.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace topkmon {

namespace {
constexpr double kNoReport = -1.0;
}

// ---------------------------------------------------------------------------
// NodeSet
// ---------------------------------------------------------------------------

void DenseComponent::NodeSet::insert(NodeId i) {
  if (mask_[i] != 0) return;
  mask_[i] = 1;
  members_.push_back(i);
}

void DenseComponent::NodeSet::erase(NodeId i) {
  if (mask_[i] == 0) return;
  mask_[i] = 0;
  members_.erase(std::find(members_.begin(), members_.end(), i));
}

void DenseComponent::NodeSet::clear() {
  for (const NodeId i : members_) mask_[i] = 0;
  members_.clear();
}

void DenseComponent::NodeSet::assign(const NodeSet& other) {
  clear();
  for (const NodeId i : other.members_) insert(i);
}

// ---------------------------------------------------------------------------
// Seeding
// ---------------------------------------------------------------------------

DenseComponent::Outcome DenseComponent::begin(SimContext& ctx, const ProbeInfo& info) {
  n_ = ctx.n();
  k_ = ctx.k();
  eps_ = ctx.epsilon();
  z_ = static_cast<double>(info.vk);
  TOPKMON_ASSERT_MSG(static_cast<double>(info.vk1) >= (1.0 - eps_) * z_,
                     "DenseComponent requires the dense precondition");

  role_.assign(n_, Role::kV3);
  v1_.clear();
  v2_.clear();
  s1_.reset(n_);
  s2_.reset(n_);
  sp1_.reset(n_);
  sp2_.reset(n_);
  last_report_.assign(n_, kNoReport);
  sub_active_ = false;
  output_.clear();
  in_output_.assign(n_, 0);

  // Announce z (and ε, which is public) so nodes can self-classify; then
  // learn every node at or above the neighborhood floor. Costs one
  // broadcast + O(|V1| + |V2|) = O(k + σ) expected messages.
  ctx.broadcast(MessageTag::kOther);
  const double floor_v2 = (1.0 - eps_) * z_;
  auto high_nodes = enumerate_nodes(
      ctx, [&](const Node& node) { return static_cast<double>(node.value()) >= floor_v2; });
  for (const auto& hit : high_nodes) {
    last_report_[hit.id] = static_cast<double>(hit.value);
    if (clearly_larger(hit.value, info.vk, eps_)) {
      role_[hit.id] = Role::kV1;
      v1_.push_back(hit.id);
    } else {
      role_[hit.id] = Role::kV2;
      v2_.push_back(hit.id);
    }
  }
  std::sort(v2_.begin(), v2_.end());
  v3_count_ = n_ - v1_.size() - v2_.size();

  // L0 = [(1−ε)z, z] on the integer grid; z is an observed (integer) value.
  l_lo_ = static_cast<Value>(std::ceil(floor_v2));
  l_hi_ = static_cast<Value>(std::floor(z_));
  TOPKMON_ASSERT(l_lo_ <= l_hi_);
  rounds_ = 0;
  recompute_thresholds();

  if (!rebuild_output()) return Outcome::kInconsistent;
  apply_filters(ctx);
  return Outcome::kRunning;
}

// ---------------------------------------------------------------------------
// Thresholds, interval halving [D2]
// ---------------------------------------------------------------------------

void DenseComponent::recompute_thresholds() {
  lr_cached_ = midpoint(static_cast<double>(l_lo_), static_cast<double>(l_hi_));
  ur_cached_ = lr_cached_ / (1.0 - eps_);
}

bool DenseComponent::halve(Half h) {
  if (l_lo_ > l_hi_) return false;
  if (l_lo_ == l_hi_) {
    // Single-point interval empties on any halving (paper's rule).
    l_lo_ = 1;
    l_hi_ = 0;
    return false;
  }
  const double mid = midpoint(static_cast<double>(l_lo_), static_cast<double>(l_hi_));
  switch (h) {
    case Half::kLowerStrict:
      l_hi_ = static_cast<Value>(std::ceil(mid)) - 1;
      break;
    case Half::kLowerInclusive:
      l_hi_ = static_cast<Value>(std::floor(mid));
      break;
    case Half::kUpper:
      l_lo_ = static_cast<Value>(std::ceil(mid));
      break;
  }
  return l_lo_ <= l_hi_;
}

bool DenseComponent::sub_halve(Half h) {
  if (sub_lo_ > sub_hi_) return false;
  if (sub_lo_ == sub_hi_) {
    sub_lo_ = 1;
    sub_hi_ = 0;
    return false;
  }
  const double mid =
      midpoint(static_cast<double>(sub_lo_), static_cast<double>(sub_hi_));
  switch (h) {
    case Half::kLowerStrict:
      sub_hi_ = static_cast<Value>(std::ceil(mid)) - 1;
      break;
    case Half::kLowerInclusive:
      sub_hi_ = static_cast<Value>(std::floor(mid));
      break;
    case Half::kUpper:
      sub_lo_ = static_cast<Value>(std::ceil(mid));
      break;
  }
  if (sub_lo_ > sub_hi_) return false;
  sub_lr_cached_ = midpoint(static_cast<double>(sub_lo_), static_cast<double>(sub_hi_));
  sub_ur_cached_ = sub_lr_cached_ / (1.0 - eps_);
  return true;
}

// ---------------------------------------------------------------------------
// Knowledge counters [D1]
// ---------------------------------------------------------------------------

std::size_t DenseComponent::count_above_ur() const {
  std::size_t c = v1_.size();
  for (const NodeId i : s1_.members()) {
    if (role_[i] == Role::kV2 && last_report_[i] > ur_cached_) ++c;
  }
  return c;
}

std::size_t DenseComponent::count_below_lr() const {
  std::size_t c = v3_count_;
  for (const NodeId i : s2_.members()) {
    if (role_[i] == Role::kV2 && last_report_[i] >= 0.0 && last_report_[i] < lr_cached_) {
      ++c;
    }
  }
  return c;
}

std::size_t DenseComponent::sub_count_above() const {
  std::size_t c = v1_.size();
  for (const NodeId i : sp1_.members()) {
    if (role_[i] == Role::kV2 && last_report_[i] > sub_ur_cached_) ++c;
  }
  return c;
}

std::size_t DenseComponent::sub_count_below() const {
  std::size_t c = v3_count_;
  for (const NodeId i : sp2_.members()) {
    if (role_[i] == Role::kV2 && last_report_[i] >= 0.0 && last_report_[i] < lr_cached_) {
      ++c;
    }
  }
  return c;
}

bool DenseComponent::unique_topk() const {
  return count_above_ur() == k_ && count_below_lr() == n_ - k_;
}

// ---------------------------------------------------------------------------
// Output and filters
// ---------------------------------------------------------------------------

bool DenseComponent::rebuild_output() {
  // Forced members: V1, plus the V2 nodes the current round commits
  // (S1 \ S2, or S'1 under the sub). The uncontested rest of V2 is the pool.
  OutputSet& next = next_output_;
  next.assign(v1_.begin(), v1_.end());
  pool_.clear();
  for (const NodeId i : v2_) {
    if (sub_active_) {
      if (sp1_.has(i)) {
        next.push_back(i);  // S'1 \ S'2 and S'1 ∩ S'2 are both output
      } else if (!sp2_.has(i)) {
        pool_.push_back(i);
      }
    } else {
      if (s1_.has(i) && !s2_.has(i)) {
        next.push_back(i);
      } else if (!s1_.has(i) && !s2_.has(i)) {
        pool_.push_back(i);
      }
    }
  }
  if (next.size() > k_ || next.size() + pool_.size() < k_) {
    return false;  // [D3]
  }
  // Fill with pool nodes, preferring current output members (stability),
  // then lowest id: a two-pass stable partition of the ascending pool.
  for (const bool prev : {true, false}) {
    for (const NodeId i : pool_) {
      if (next.size() == k_) break;
      if ((in_output_[i] != 0) == prev) next.push_back(i);
    }
  }
  std::sort(next.begin(), next.end());
  for (const NodeId id : output_) in_output_[id] = 0;
  output_.swap(next);
  for (const NodeId id : output_) in_output_[id] = 1;
  return true;
}

Filter DenseComponent::filter_for(const Node& node) const {
  const NodeId i = node.id();
  const double z_over = z_ / (1.0 - eps_);
  const double z_under = (1.0 - eps_) * z_;
  if (sub_active_) {
    switch (role_[i]) {
      case Role::kV1: return Filter::at_least(lr_cached_);
      case Role::kV3: return Filter::at_most(sub_ur_cached_);
      case Role::kV2:
        if (sp1_.has(i) && !sp2_.has(i)) return Filter{lr_cached_, z_over};
        if (sp1_.has(i) && sp2_.has(i)) return Filter{sub_lr_cached_, z_over};
        if (!sp1_.has(i) && sp2_.has(i)) return Filter{z_under, sub_ur_cached_};
        return Filter{lr_cached_, sub_ur_cached_};
    }
  } else {
    switch (role_[i]) {
      case Role::kV1: return Filter::at_least(lr_cached_);
      case Role::kV3: return Filter::at_most(ur_cached_);
      case Role::kV2:
        if (s1_.has(i) && !s2_.has(i)) return Filter{lr_cached_, z_over};
        if (!s1_.has(i) && s2_.has(i)) return Filter{z_under, ur_cached_};
        // s1 && s2 only exists in the instant before start_sub broadcasts;
        // give it the widest V2 filter defensively.
        if (s1_.has(i) && s2_.has(i)) return Filter{z_under, z_over};
        return Filter{lr_cached_, ur_cached_};
    }
  }
  return Filter::all();
}

void DenseComponent::apply_filters(SimContext& ctx) {
  ctx.broadcast_filters([&](const Node& node) { return filter_for(node); });
}

// ---------------------------------------------------------------------------
// Role moves
// ---------------------------------------------------------------------------

void DenseComponent::leave_v2(NodeId id, Role to) {
  TOPKMON_ASSERT(role_[id] == Role::kV2);
  role_[id] = to;
  v2_.erase(std::lower_bound(v2_.begin(), v2_.end(), id));
  s1_.erase(id);
  s2_.erase(id);
  sp1_.erase(id);
  sp2_.erase(id);
}

void DenseComponent::move_to_v1(NodeId id) {
  leave_v2(id, Role::kV1);
  v1_.push_back(id);
}

void DenseComponent::move_to_v3(NodeId id) {
  leave_v2(id, Role::kV3);
  ++v3_count_;
}

// ---------------------------------------------------------------------------
// Main-protocol violation handling (paper step 3)
// ---------------------------------------------------------------------------

DenseComponent::Outcome DenseComponent::finish_violation(SimContext& ctx) {
  (void)ctx;
  if (unique_topk()) return Outcome::kUniqueTopK;
  if (!rebuild_output()) return Outcome::kInconsistent;
  return Outcome::kRunning;
}

DenseComponent::Outcome DenseComponent::after_halve(SimContext& ctx, Half h,
                                                    bool clear_s1, bool clear_s2) {
  if (clear_s1) s1_.clear();
  if (clear_s2) s2_.clear();
  if (!halve(h)) return Outcome::kIntervalEmpty;
  ++rounds_;
  recompute_thresholds();
  if (unique_topk()) return Outcome::kUniqueTopK;
  if (!rebuild_output()) return Outcome::kInconsistent;
  apply_filters(ctx);
  return Outcome::kRunning;
}

DenseComponent::Outcome DenseComponent::handle_violation(SimContext& ctx, NodeId id,
                                                         Value value, Violation side) {
  last_report_[id] = static_cast<double>(value);
  if (sub_active_) {
    return handle_sub_violation(ctx, id, value, side);
  }
  switch (role_[id]) {
    case Role::kV1:
      // Step 3.a: a must-be-output node fell below ℓ_r ⇒ ℓ* < ℓ_r.
      TOPKMON_ASSERT(side == Violation::kFromAbove);
      return after_halve(ctx, Half::kLowerStrict, /*clear_s1=*/false,
                         /*clear_s2=*/true);
    case Role::kV3:
      // Step 3.a': a must-not-be-output node rose above u_r ⇒ ℓ* ≥ ℓ_r.
      TOPKMON_ASSERT(side == Violation::kFromBelow);
      return after_halve(ctx, Half::kUpper, /*clear_s1=*/true, /*clear_s2=*/false);
    case Role::kV2:
      break;
  }
  const bool in1 = s1_.has(id);
  const bool in2 = s2_.has(id);
  if (!in1 && !in2) {
    if (side == Violation::kFromBelow) {
      // Step 3.b: crossed u_r from below.
      if (count_above_ur() + 1 > k_) {
        // 3.b.1: every k-subset must exclude a node above u_r ⇒ ℓ* ≥ ℓ_r.
        return after_halve(ctx, Half::kUpper, /*clear_s1=*/true, /*clear_s2=*/false);
      }
      s1_.insert(id);  // 3.b.2; the node derives its new filter itself
      ctx.set_filter_free(id, filter_for(ctx.nodes()[id]));
      return finish_violation(ctx);
    }
    // Step 3.b': dropped below ℓ_r.
    if (count_below_lr() + 1 > n_ - k_) {
      // 3.b'.1 ⇒ ℓ* ≤ ℓ_r.
      return after_halve(ctx, Half::kLowerInclusive, /*clear_s1=*/false,
                         /*clear_s2=*/true);
    }
    s2_.insert(id);  // 3.b'.2
    ctx.set_filter_free(id, filter_for(ctx.nodes()[id]));
    return finish_violation(ctx);
  }
  if (in1 && !in2) {
    if (side == Violation::kFromBelow) {
      // 3.c.1: observed above z/(1−ε) ⇒ must be in any optimal output.
      move_to_v1(id);
      ctx.set_filter_free(id, filter_for(ctx.nodes()[id]));
      return finish_violation(ctx);
    }
    // 3.c.2: now in S1 ∩ S2 — the ambiguous case SUBPROTOCOL resolves.
    s2_.insert(id);
    return start_sub(ctx, id);
  }
  if (!in1 && in2) {
    if (side == Violation::kFromAbove) {
      // 3.c'.1: observed below (1−ε)z ⇒ cannot be in any optimal output.
      move_to_v3(id);
      ctx.set_filter_free(id, filter_for(ctx.nodes()[id]));
      return finish_violation(ctx);
    }
    // 3.c'.2: S1 ∩ S2 from the other side.
    s1_.insert(id);
    return start_sub(ctx, id);
  }
  // in1 && in2 in the main protocol should not persist; resolve via sub.
  return start_sub(ctx, id);
}

// ---------------------------------------------------------------------------
// SUBPROTOCOL
// ---------------------------------------------------------------------------

DenseComponent::Outcome DenseComponent::start_sub(SimContext& ctx, NodeId trigger) {
  ++sub_calls_;
  sub_active_ = true;
  sub_trigger_ = trigger;
  sub_last_above_violator_.reset();
  // L'0 = L ∩ [(1−ε)z, ℓ_r] on the grid.
  sub_lo_ = l_lo_;
  sub_hi_ = std::min(l_hi_, static_cast<Value>(std::floor(lr_cached_)));
  TOPKMON_ASSERT(sub_lo_ <= sub_hi_);
  sub_lr_cached_ = midpoint(static_cast<double>(sub_lo_), static_cast<double>(sub_hi_));
  sub_ur_cached_ = sub_lr_cached_ / (1.0 - eps_);
  sp1_.assign(s1_);
  sp2_.clear();
  if (!rebuild_output()) {
    terminate_sub();
    return Outcome::kInconsistent;
  }
  apply_filters(ctx);  // one broadcast announcing the sub-round thresholds
  return Outcome::kRunning;
}

void DenseComponent::terminate_sub() { sub_active_ = false; }

DenseComponent::Outcome DenseComponent::handle_sub_violation(SimContext& ctx,
                                                             NodeId id, Value value,
                                                             Violation side) {
  (void)value;
  auto resume_main = [&]() -> Outcome {
    // If the trigger is still ambiguous (S1 ∩ S2), the sub must continue:
    // re-enter with the same trigger. Progress is guaranteed because every
    // sub termination moved some node out of V2 or halved an interval.
    if (role_[sub_trigger_] == Role::kV2 && s1_.has(sub_trigger_) &&
        s2_.has(sub_trigger_)) {
      return start_sub(ctx, sub_trigger_);
    }
    if (unique_topk()) return Outcome::kUniqueTopK;
    if (!rebuild_output()) return Outcome::kInconsistent;
    apply_filters(ctx);
    return Outcome::kRunning;
  };

  auto sub_upper_half = [&]() -> Outcome {
    // Steps 3'.a / 3'.b.1: evidence ℓ* ≥ ℓ'_r'. S'1 is re-seeded from S1.
    sp1_.assign(s1_);
    if (!sub_halve(Half::kUpper)) {
      // L' empty: the last S'1∩S'2 from-above violator (or the trigger)
      // cannot be in any optimal output.
      const NodeId victim = sub_last_above_violator_.value_or(sub_trigger_);
      if (role_[victim] == Role::kV2) move_to_v3(victim);
      terminate_sub();
      return resume_main();
    }
    ++sub_rounds_;
    if (!rebuild_output()) {
      terminate_sub();
      return Outcome::kInconsistent;
    }
    apply_filters(ctx);
    return Outcome::kRunning;
  };

  auto finish_sub = [&]() -> Outcome {
    if (unique_topk()) return Outcome::kUniqueTopK;
    if (!rebuild_output()) return Outcome::kInconsistent;
    return Outcome::kRunning;
  };

  switch (role_[id]) {
    case Role::kV1:
      // 3'.a: terminate the sub; main-protocol 3.a semantics apply.
      TOPKMON_ASSERT(side == Violation::kFromAbove);
      terminate_sub();
      return after_halve(ctx, Half::kLowerStrict, /*clear_s1=*/false,
                         /*clear_s2=*/true);
    case Role::kV3:
      // 3'.a'.
      TOPKMON_ASSERT(side == Violation::kFromBelow);
      return sub_upper_half();
    case Role::kV2:
      break;
  }

  const bool p1 = sp1_.has(id);
  const bool p2 = sp2_.has(id);
  if (!p1 && !p2) {
    if (side == Violation::kFromBelow) {
      // 3'.b: crossed u'_r'.
      if (sub_count_above() + 1 > k_) {
        return sub_upper_half();  // 3'.b.1
      }
      sp1_.insert(id);  // 3'.b.2
      ctx.set_filter_free(id, filter_for(ctx.nodes()[id]));
      return finish_sub();
    }
    // 3'.b': dropped below ℓ_r.
    if (sub_count_below() + 1 > n_ - k_) {
      // 3'.b'.1: terminate; main lower half.
      terminate_sub();
      return after_halve(ctx, Half::kLowerInclusive, /*clear_s1=*/false,
                         /*clear_s2=*/true);
    }
    sp2_.insert(id);  // 3'.b'.2
    ctx.set_filter_free(id, filter_for(ctx.nodes()[id]));
    return finish_sub();
  }
  if (p1 && !p2) {
    if (side == Violation::kFromBelow) {
      // 3'.c.1: above z/(1−ε) ⇒ V1.
      move_to_v1(id);
      ctx.set_filter_free(id, filter_for(ctx.nodes()[id]));
      return finish_sub();
    }
    // 3'.c.2: joins S'1 ∩ S'2.
    sp2_.insert(id);
    ctx.set_filter_free(id, filter_for(ctx.nodes()[id]));
    return finish_sub();
  }
  if (p1 && p2) {
    if (side == Violation::kFromBelow) {
      // 3'.d.1: above z/(1−ε) ⇒ V1; the sub is done.
      move_to_v1(id);
      terminate_sub();
      return resume_main();
    }
    // 3'.d.2: below ℓ'_r' ⇒ ℓ* < ℓ'_r'; halve L' to the lower side.
    sub_last_above_violator_ = id;
    sp2_.clear();
    if (!sub_halve(Half::kLowerStrict)) {
      if (role_[id] == Role::kV2) move_to_v3(id);
      terminate_sub();
      return resume_main();
    }
    ++sub_rounds_;
    if (!rebuild_output()) {
      terminate_sub();
      return Outcome::kInconsistent;
    }
    apply_filters(ctx);
    return Outcome::kRunning;
  }
  // !p1 && p2 — 3'.c'.
  if (side == Violation::kFromAbove) {
    // 3'.c'.1: below (1−ε)z ⇒ V3.
    move_to_v3(id);
    ctx.set_filter_free(id, filter_for(ctx.nodes()[id]));
    return finish_sub();
  }
  // 3'.c'.2: joins S'1 ∩ S'2.
  sp1_.insert(id);
  ctx.set_filter_free(id, filter_for(ctx.nodes()[id]));
  return finish_sub();
}

}  // namespace topkmon
