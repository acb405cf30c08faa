#include "protocols/sampling.hpp"

#include <numeric>

#include "protocols/existence.hpp"
#include "sim/context.hpp"
#include "util/assert.hpp"

namespace topkmon {

namespace {

/// Folds one SimContext::sample_max_over run — its cost, booked into
/// `stats`, and its answer — into `out`.
void absorb_run(const CommStats& stats, const std::optional<ProbeResult>& best,
                SampleMaxOutcome& out) {
  out.messages += stats.total();
  out.rounds += stats.total_rounds();
  if (best) {
    out.found = true;
    out.id = best->id;
    out.value = best->value;
  }
}

/// Lemma 2.6 over `pool` (ascending ids) through the shared core loop.
SampleMaxOutcome sample_max_of(std::span<const Value> values, std::vector<NodeId>& pool,
                               Rng& rng) {
  SampleMaxOutcome out;
  CommStats stats;
  const auto best = SimContext::sample_max_over(
      values.size(), pool, [&](NodeId i) { return values[i]; }, stats, rng);
  absorb_run(stats, best, out);
  // One EXISTENCE run per improvement broadcast, plus the final silent one.
  out.iterations = stats.by_kind(MessageKind::kBroadcast) + 1;
  return out;
}

}  // namespace

SampleMaxOutcome sample_max_standalone(std::span<const Value> values, Rng& rng) {
  TOPKMON_ASSERT(!values.empty());
  std::vector<NodeId> active(values.size());
  std::iota(active.begin(), active.end(), NodeId{0});
  return sample_max_of(values, active, rng);
}

SampleMaxOutcome bisect_max_standalone(std::span<const Value> values, Value delta,
                                       Rng& rng) {
  TOPKMON_ASSERT(!values.empty());
  SampleMaxOutcome out;
  const auto value = [&](NodeId i) { return values[i]; };
  const auto absorb = [&](const ExistenceResult& res) {
    for (const auto& hit : res.senders) {
      if (!out.found || ranks_above(hit.value, hit.id, out.value, out.id)) {
        out.found = true;
        out.id = hit.id;
        out.value = hit.value;
      }
    }
  };
  // Bisect [lo, hi] on "does any node exceed mid?"; every query is one
  // EXISTENCE run whose witnesses (if any) also advance the best estimate.
  std::vector<NodeId> active;
  Value lo = 0;
  Value hi = delta;
  while (lo < hi) {
    const Value mid = lo + (hi - lo) / 2;
    active.clear();
    for (NodeId i = 0; i < values.size(); ++i) {
      if (values[i] > mid) active.push_back(i);
    }
    const auto res = ExistenceProtocol::run_active(values.size(), active, value, rng);
    out.messages += res.messages;
    out.rounds += res.rounds;
    ++out.iterations;
    if (res.any) {
      absorb(res);
      lo = mid + 1;
    } else {
      hi = mid;
    }
    ++out.messages;  // broadcast of the next threshold
  }
  // `lo` is now the maximum value; converge on the top-ranked holder (ties
  // by lowest id) with sampling rounds restricted to the max-value set.
  active.clear();
  for (NodeId i = 0; i < values.size(); ++i) {
    if (values[i] == lo && (!out.found || ranks_above(values[i], i, out.value, out.id))) {
      active.push_back(i);
    }
  }
  CommStats stats;
  const auto best = SimContext::sample_max_over(values.size(), active, value, stats, rng);
  absorb_run(stats, best, out);
  return out;
}

ProbeTopOutcome probe_top_standalone(std::span<const Value> values, std::size_t m,
                                     Rng& rng) {
  TOPKMON_ASSERT(m <= values.size());
  std::vector<NodeId> pool(values.size());
  std::iota(pool.begin(), pool.end(), NodeId{0});
  std::vector<NodeId> active;
  std::vector<ProbeResult> ranked;
  CommStats stats;
  while (ranked.size() < m &&
         SimContext::probe_next_rank(values.size(), pool, active,
                                     [&](NodeId i) { return values[i]; }, ranked, stats,
                                     rng)) {
  }
  ProbeTopOutcome out;
  out.messages = stats.total();
  out.rounds = stats.total_rounds();
  for (const ProbeResult& r : ranked) out.top.emplace_back(r.id, r.value);
  return out;
}

}  // namespace topkmon
