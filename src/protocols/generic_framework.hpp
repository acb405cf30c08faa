// Shared machinery for the Sect. 3 "generic approach":
//   * probing the k+1 largest values to seed an interval L,
//   * the per-step violation drain loop (server processes one live
//     violation at a time; stale reports are ignored, as the paper allows),
//   * EXISTENCE-based enumeration of all nodes matching a predicate
//     (used by DENSEPROTOCOL to collect the ε-neighborhood at start-up),
//   * the deterministic every-node collect (COUNTDISTINCT's seed).
#pragma once

#include <algorithm>
#include <vector>

#include "model/filter.hpp"
#include "sim/context.hpp"
#include "util/assert.hpp"

namespace topkmon {

struct ProbeInfo {
  /// Probed nodes in descending rank order; exactly k+1 entries (k < n).
  std::vector<SimContext::ProbeResult> ranked;
  OutputSet top_ids;  ///< ids of the k highest, sorted ascending
  Value vk = 0;       ///< k-th largest value
  Value vk1 = 0;      ///< (k+1)-st largest value
};

/// Computes the nodes holding the k+1 largest values (Lemma 2.6 applied
/// k+1 times): O(k log n) messages expected. Requires k < n.
ProbeInfo probe_top_k_plus_1(SimContext& ctx);

/// Runs the per-step violation loop: repeatedly EXISTENCE-collects
/// violations and hands exactly one *live* report to `handler`, a callable
/// `void(NodeId, Value, Violation)` (id, reported value, direction). The
/// handler must change state so the violation cannot recur unboundedly; the
/// loop asserts after `max_iters` iterations to catch non-progressing
/// protocols in tests.
template <class Handler>
void drain_violations(SimContext& ctx, Handler&& handler,
                      std::uint64_t max_iters = 1u << 20) {
  for (std::uint64_t iter = 0;; ++iter) {
    TOPKMON_ASSERT_MSG(iter < max_iters, "violation drain did not converge");
    const ExistenceResult res = ctx.collect_violations();
    if (!res.any) return;
    // Process the first reporter; the other senders' reports are stale the
    // moment the handler changes filters, so the server ignores them (their
    // messages are already accounted). Nodes still violating will re-report
    // in the next EXISTENCE run.
    const ExistenceHit hit = res.senders.front();
    const Violation side = ctx.nodes()[hit.id].filter().check(hit.value);
    TOPKMON_ASSERT(side != Violation::kNone);
    handler(hit.id, hit.value, side);
  }
}

/// Enumerates *all* nodes satisfying `pred` (a callable `bool(const Node&)`)
/// by repeated EXISTENCE runs with node-side dedup; O(#found + 1) expected
/// messages. Returns (id, value) in discovery order. The nodes evaluate
/// `pred` once; each run's senders then drop out of the one active list, so
/// the simulation costs O(n + Σ_runs |active|) rather than O(n) per hit.
template <class Pred>
std::vector<SimContext::ProbeResult> enumerate_nodes(SimContext& ctx, Pred&& pred) {
  std::vector<SimContext::ProbeResult> out;
  std::vector<NodeId> active;
  ctx.select_nodes(pred, active);
  for (;;) {
    const ExistenceResult res = ctx.existence_over(active, MessageTag::kProbe);
    if (!res.any) break;
    // Senders are a subsequence of the (ascending) active list: one merge
    // pass drops them.
    std::size_t kept = 0;
    auto next = res.senders.begin();
    for (const NodeId i : active) {
      if (next != res.senders.end() && next->id == i) {
        ++next;
      } else {
        active[kept++] = i;
      }
    }
    active.resize(kept);
    for (const auto& hit : res.senders) {
      out.push_back({hit.id, hit.value});
    }
  }
  return out;
}

/// Deterministic O(1)-round, n-message collect: every node reports once, in
/// id order. No RNG draw, so it suits seeding state that must not perturb
/// the randomized primitives.
inline std::vector<SimContext::ProbeResult> collect_all_deterministic(SimContext& ctx) {
  std::vector<SimContext::ProbeResult> out;
  out.reserve(ctx.n());
  for (NodeId i = 0; i < ctx.n(); ++i) {
    out.push_back({i, ctx.report_value(i, MessageTag::kOther)});
  }
  return out;
}

}  // namespace topkmon
