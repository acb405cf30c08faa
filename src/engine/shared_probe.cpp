#include "engine/shared_probe.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"

namespace topkmon {

SharedProbe::SharedProbe(std::uint64_t seed)
    : rng_(Rng::derive(seed, /*stream_id=*/0x5A4ED)) {}

void SharedProbe::begin_step(const ValueVector* snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  TOPKMON_ASSERT(snapshot != nullptr);
  snapshot_ = snapshot;
  cache_.clear();
  exhausted_ = snapshot_->empty();
  stats_.begin_step();
}

std::vector<ProbeResult> SharedProbe::top(std::size_t m) {
  std::lock_guard<std::mutex> lock(mu_);
  TOPKMON_ASSERT_MSG(snapshot_ != nullptr, "SharedProbe::top before begin_step");
  ++calls_;
  extend_locked(m);
  const std::size_t take = std::min(m, cache_.size());
  return {cache_.begin(), cache_.begin() + static_cast<std::ptrdiff_t>(take)};
}

void SharedProbe::extend_locked(std::size_t m) {
  const ValueVector& values = *snapshot_;
  if (cache_.empty() && !exhausted_) {
    // First rank of the step: every node is still unranked.
    pool_.resize(values.size());
    std::iota(pool_.begin(), pool_.end(), NodeId{0});
  }
  while (cache_.size() < m && !exhausted_) {
    // One Lemma 2.6 sample_max over the unranked nodes, with the exact
    // accounting SimContext::probe_top applies (shared core loop).
    if (!SimContext::probe_next_rank(
            values.size(), pool_, active_, [&](NodeId i) { return values[i]; }, cache_,
            stats_, rng_)) {
      exhausted_ = true;
      break;
    }
    ++ranks_computed_;
    if (cache_.size() == values.size()) {
      exhausted_ = true;
    }
  }
}

}  // namespace topkmon
