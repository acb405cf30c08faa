// SimContext — the server's only window onto the distributed nodes.
//
// Protocol (server-side) code learns node values exclusively through the
// accounted primitives below; each call books its messages with CommStats.
// Node-side computation (a node evaluating a predicate on its *own* value,
// checking its *own* filter) is free, as in the model of Cormode et al. that
// the paper builds on. Generators and the strict validator may read
// `nodes()` directly — they are the adversary and the referee, not the
// algorithm.
//
// Primitives and their costs:
//   report_value(i)      1 node→server message
//   unicast/set_filter   1 server→node message
//   broadcast(...)       1 broadcast message (all nodes receive)
//   existence(bit)       Lemma 3.1 process, O(1) messages in expectation
//   collect_violations() existence over "my filter is violated"
//   sample_max(pred)     Lemma 2.6, O(log n) messages in expectation
//   probe_top(m)         m × sample_max with exclusion, O(m log n)
//
// Node-side predicates and filter rules are typed (template) callables,
// evaluated once per node per primitive call to build the run's active
// list (protocols/existence.hpp); repeated runs inside one primitive —
// sample_max's threshold loop, enumerate_nodes — shrink that list in place
// instead of re-evaluating the predicate over the fleet.
//
// Node state is one structure-of-arrays store — values, filter lower bounds,
// filter upper bounds, violation bits — so an observation step and a filter
// broadcast are whole-fleet vector passes: a copy or a rule pass that writes
// the arrays, then one vectorized re-derive of the violation bits
// (util/simd.hpp). `nodes()` reads the store through by-value Node views.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "model/filter.hpp"
#include "model/types.hpp"
#include "protocols/existence.hpp"
#include "sim/comm_stats.hpp"
#include "sim/node.hpp"
#include "telemetry/profiler.hpp"
#include "util/rng.hpp"

namespace topkmon {

struct SimParams {
  std::size_t n = 10;
  std::size_t k = 3;
  double epsilon = 0.1;

  /// Threshold bound T for QueryKind::kThreshold protocols (value is public
  /// configuration, like k and ε); ignored by every other protocol.
  Value threshold = 0;
};

/// One node's answer to a probe: its id and the value it reported.
struct ProbeResult {
  NodeId id;
  Value value;
};

/// Cross-query probe batching hook (engine-level work sharing).
///
/// `probe_top(m)` asks for the global top-m by (value, id) — a predicate that
/// is identical for every query monitoring the same fleet within one time
/// step. When a sharer is installed, SimContext routes `probe_top` through it
/// so that one probe round serves all queries of the step; the sharer books
/// the messages once (in its own CommStats), not per calling query.
class ProbeSharer {
 public:
  virtual ~ProbeSharer() = default;

  /// Top-m nodes (descending rank order; shorter if the fleet is smaller).
  /// Must be safe to call from concurrent shards.
  virtual std::vector<ProbeResult> top(std::size_t m) = 0;
};

class SimContext {
 public:
  SimContext(SimParams params, std::uint64_t protocol_seed);

  std::size_t n() const { return values_.size(); }
  std::size_t k() const { return params_.k; }
  double epsilon() const { return params_.epsilon; }
  Value threshold() const { return params_.threshold; }
  TimeStep time() const { return time_; }

  /// Read-only node views (values + filters). For generators, validators and
  /// node-side predicates; protocol server logic must use accounted calls.
  NodeRange nodes() const {
    return {values_.data(), filter_lo_.data(), filter_hi_.data(), values_.size()};
  }

  // ---- accounted primitives (server side) --------------------------------

  /// Node i sends its current value to the server (1 message).
  Value report_value(NodeId i, MessageTag tag = MessageTag::kProbe);

  /// Server sends a control message to node i (1 message).
  void unicast(NodeId i, MessageTag tag = MessageTag::kOther);

  /// Server assigns a filter to a single node (1 server→node message).
  void set_filter_unicast(NodeId i, const Filter& f,
                          MessageTag tag = MessageTag::kFilterUnicast);

  /// Server broadcasts a control value (1 message); no filter change.
  void broadcast(MessageTag tag = MessageTag::kOther);

  /// Server broadcasts a *rule*; every node derives its filter from it
  /// locally (1 broadcast message total). The rule — a callable
  /// `Filter(const Node&)` — may depend only on node-public state (its role
  /// previously communicated, its id).
  ///
  /// One rule pass writes both bound arrays; one vectorized pass then
  /// re-derives every violation bit, bit-identical to Filter::check per node.
  template <class Rule>
  void broadcast_filters(Rule&& rule, MessageTag tag = MessageTag::kFilterBroadcast) {
    stats_.count(MessageKind::kBroadcast, tag);
    const NodeRange fleet = nodes();
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const Filter f = rule(fleet[i]);
      filter_lo_[i] = f.lo;
      filter_hi_[i] = f.hi;
    }
    if (track_filters_) {
      for (NodeId i = 0; i < fleet.size(); ++i) mark_dirty(i);
    }
    rederive_violations();
  }

  /// Node-side selection (free): replaces `out` with the ids of the nodes
  /// satisfying `pred` (a callable `bool(const Node&)`), ascending.
  template <class Pred>
  void select_nodes(Pred&& pred, std::vector<NodeId>& out) const {
    out.clear();
    for (const Node node : nodes()) {
      if (pred(node)) out.push_back(node.id());
    }
  }

  /// Lemma 3.1 EXISTENCE over the node-side predicate `bit` (a callable
  /// `bool(const Node&)`).
  template <class Bit>
  ExistenceResult existence(Bit&& bit, MessageTag tag = MessageTag::kExistence) {
    select_nodes(bit, active_);
    return existence_over(active_, tag);
  }

  /// EXISTENCE whose active nodes are `active` (ascending ids): the run
  /// `existence` performs once the node-side bits are known.
  ExistenceResult existence_over(std::span<const NodeId> active,
                                 MessageTag tag = MessageTag::kExistence);

  /// EXISTENCE over "node observes a filter violation" (Corollary 3.2).
  /// Senders attach their value; the server additionally learns the
  /// violation direction from the value vs the node's (server-known) filter.
  ///
  /// Hot-path note: violation bits are maintained incrementally (observe /
  /// filter writes), so the quiescent case — no node violating — answers in
  /// O(1) with the exact message/round accounting and RNG draws (none) the
  /// full EXISTENCE run would produce on an empty active set.
  ExistenceResult collect_violations();

  /// Nodes currently observing a filter violation (maintained incrementally).
  std::size_t violating_count() const { return violating_count_; }

  using ProbeResult = ::topkmon::ProbeResult;

  /// Lemma 2.6: the node holding the maximum (value, id-tiebreak) among
  /// nodes satisfying `pred` (a callable `bool(const Node&)`); nullopt if
  /// none. O(log n) messages expected.
  template <class Pred>
  std::optional<ProbeResult> sample_max(Pred&& pred) {
    select_nodes(pred, active_);
    return sample_max_over(n(), active_, node_value(), stats_, rng_);
  }

  /// The core Lemma 2.6 threshold-sampling loop, shared by sample_max, the
  /// engine's SharedProbe and the standalone sampling protocols so all book
  /// identical costs: existence sends as node→server kProbe messages
  /// (+rounds), one kProbe broadcast per improvement. `active` holds the
  /// candidates (ascending ids < n); after each improvement the nodes at or
  /// below the announced best deactivate, so the list is filtered in place
  /// and keeps its order. `value(i)` is node i's value.
  template <class ValueOf>
  static std::optional<ProbeResult> sample_max_over(std::size_t n,
                                                    std::vector<NodeId>& active,
                                                    ValueOf&& value, CommStats& stats,
                                                    Rng& rng) {
    std::optional<ProbeResult> best;
    for (;;) {
      const ExistenceResult res = ExistenceProtocol::run_active(n, active, value, rng);
      stats.count(MessageKind::kNodeToServer, MessageTag::kProbe, res.messages);
      stats.add_rounds(res.rounds);
      if (!res.any) break;
      for (const auto& hit : res.senders) {
        if (!best || ranks_above(hit.value, hit.id, best->value, best->id)) {
          best = ProbeResult{hit.id, hit.value};
        }
      }
      // Announce the improved threshold so nodes at or below it deactivate.
      stats.count(MessageKind::kBroadcast, MessageTag::kProbe);
      const ProbeResult bar = *best;
      std::erase_if(active, [&](NodeId i) {
        return !ranks_above(value(i), i, bar.value, bar.id);
      });
    }
    return best;
  }

  /// Appends the next rank of a repeated sample_max with exclusion: the
  /// maximum over `pool` (ascending ids < n, the not-yet-ranked nodes),
  /// which then leaves the pool. `active` is scratch. False, with nothing
  /// appended, once the pool is empty. Shared by probe_top and SharedProbe.
  template <class ValueOf>
  static bool probe_next_rank(std::size_t n, std::vector<NodeId>& pool,
                              std::vector<NodeId>& active, ValueOf&& value,
                              std::vector<ProbeResult>& ranked, CommStats& stats,
                              Rng& rng) {
    active.assign(pool.begin(), pool.end());
    const std::optional<ProbeResult> best = sample_max_over(n, active, value, stats, rng);
    if (!best) return false;
    pool.erase(std::lower_bound(pool.begin(), pool.end(), best->id));
    ranked.push_back(*best);
    return true;
  }

  /// Top-m nodes overall by repeated sample_max with exclusion; descending
  /// rank order. O(m log n) messages expected.
  std::vector<ProbeResult> probe_top(std::size_t m);

  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }
  Rng& rng() { return rng_; }

  // ---- simulator plumbing -------------------------------------------------

  /// Installs the observation vector for the next time step.
  void advance_time(const ValueVector& values);

  /// Direct filter write without accounting — simulator/test setup only.
  void set_filter_free(NodeId i, const Filter& f) { install_filter(i, f); }

  /// Installs (or clears, with nullptr) the cross-query probe batching hook;
  /// the sharer must outlive this context. Engine plumbing only.
  void set_probe_sharer(ProbeSharer* sharer) { probe_sharer_ = sharer; }

  /// Arms (or clears) the per-phase step profiler: collect_violations times
  /// itself under Phase::kViolationCollect. Simulator plumbing.
  void set_profiler(telemetry::StepProfiler* prof) { profiler_ = prof; }

  // ---- filter-change tracking (net runtime plumbing) ----------------------

  /// Arms per-step dirty-filter tracking: every install_filter (unicast,
  /// broadcast rule, or free write) records the node id, deduped, until the
  /// next advance_time clears the set. The networked coordinator (src/net)
  /// consumes the set to ship filter deltas to node-hosts. Off by default —
  /// untracked contexts pay nothing. Buffers are preallocated here, so
  /// tracked steady-state steps stay allocation-free.
  void enable_filter_tracking() {
    if (!track_filters_) {
      track_filters_ = true;
      filter_dirty_mark_.assign(n(), 0);
      filter_dirty_ids_.reserve(n());
    }
  }

  /// Node ids whose filter changed since the last advance_time (valid only
  /// with tracking enabled; unspecified order, each id at most once).
  const std::vector<NodeId>& dirty_filters() const { return filter_dirty_ids_; }

 private:
  /// Single-node filter write (unicast and free writes): both bounds and
  /// the violation bit move together.
  void install_filter(NodeId i, const Filter& f) {
    filter_lo_[i] = f.lo;
    filter_hi_[i] = f.hi;
    refresh_violation(i);
    if (track_filters_) mark_dirty(i);
  }

  /// Records node i in the dirty-filter set (tracking enabled only).
  void mark_dirty(NodeId i) {
    if (!filter_dirty_mark_[i]) {
      filter_dirty_mark_[i] = 1;
      filter_dirty_ids_.push_back(i);
    }
  }

  /// Drops the dirty-filter set (tracking enabled only).
  void clear_dirty_filters() {
    for (const NodeId i : filter_dirty_ids_) {
      filter_dirty_mark_[i] = 0;
    }
    filter_dirty_ids_.clear();
  }

  /// Node i's current value, as the payload senders attach.
  auto node_value() const {
    return [this](NodeId i) { return values_[i]; };
  }

  /// Re-derives node i's violation bit after a single-node filter write.
  void refresh_violation(NodeId i) {
    const std::uint8_t now = nodes()[i].violating() ? 1 : 0;
    violating_count_ += now;
    violating_count_ -= violating_[i];
    violating_[i] = now;
  }

  /// Re-derives every violation bit (and the count) from the store in one
  /// branchless filter-bound pass — bit-identical to Filter::check per node.
  void rederive_violations();

  SimParams params_;
  CommStats stats_;
  Rng rng_;
  TimeStep time_ = -1;
  ProbeSharer* probe_sharer_ = nullptr;
  telemetry::StepProfiler* profiler_ = nullptr;
  // The node store: slot i of each array is node i.
  std::vector<Value> values_;      ///< current observations
  std::vector<double> filter_lo_;  ///< filter lower bounds
  std::vector<double> filter_hi_;  ///< filter upper bounds
  /// Violation bits, kept in sync with every observation and filter write
  /// so the per-step violation sweep builds its active list with one
  /// vectorized byte scan instead of re-evaluating every node's filter.
  std::vector<std::uint8_t> violating_;
  std::vector<NodeId> violators_;  ///< collect_violations' active list (size n)
  std::size_t violating_count_ = 0;
  bool track_filters_ = false;  ///< dirty-filter tracking armed (net runtime)
  std::vector<std::uint8_t> filter_dirty_mark_;  ///< per-node dedup bits
  std::vector<NodeId> filter_dirty_ids_;         ///< ids installed this step
  std::vector<NodeId> active_;  ///< existence / sample_max / probe_top active list
  std::vector<NodeId> pool_;    ///< probe_top's not-yet-ranked nodes
};

}  // namespace topkmon
