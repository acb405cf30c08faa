// NodeHost — the data-plane process of the networked runtime.
//
// One node-host owns a contiguous shard [lo, hi) of the fleet. It receives
// the full RunSpec in the Config handshake (zero workload flags of its own),
// generates step 0 and frames its report right away, and then, per step t,
// in lockstep with the coordinator:
//
//   1. StepBegin{t}  — sends the ShardValues frame it framed ahead: the
//      shard's effective values plus node-side observations (the shard's
//      stale-read count; violations of the filters installed at t - 1),
//      written straight from the pipeline's slice;
//   2. generate ahead — runs the deterministic full-fleet FleetPipeline
//      (generator, fault injector, window) for step t + 1, if the run has
//      one, while the coordinator decodes, computes σ, runs the protocol
//      and assigns filters for step t;
//   3. FilterUpdate  — installs the filter deltas the coordinator's protocol
//      assigned to this shard, then checks quiescence: every shard node's
//      monitored value of step t (kept when the report was framed) must lie
//      inside its fresh filter;
//   4. StepAck       — reports the quiescence verdict, then frames the
//      report of step t + 1 while the coordinator collects the acks.
//
// Working ahead is sound because hosts are non-adaptive: adaptive streams
// are rejected at spec validation, the AdversaryView is empty, and faults
// come from a per-seed schedule, so nothing the coordinator sends at t can
// change step t + 1; and once step t is acked, the filters that step t + 1's
// report checks are final. No frame depends on when a host computes.
//
// Why full-fleet generation on every host: generators are cheap and
// deterministic, and running them whole keeps the RNG stream identical to
// the standalone Simulator (bit-identical values without any cross-host
// value exchange). Only the shard slice ever crosses the wire.
//
// Windowing: shard reports carry pre-window values, which the coordinator
// windows itself; the host's pipeline windows too, purely to check filter
// quiescence against the same monitored values the protocol sees.
//
// Filter checks: the host keeps its shard's filters as two bound arrays
// (lo, hi), so each per-step count — the report's violations and the ack's
// quiescence errors — is one simd::violation_mask pass over the shard, the
// kernel SimContext uses, exact against Filter::check for NaN and ±∞
// bounds. A kMaxObservableValue range assert guards the pass's u64 → double
// lane conversion. The coordinator does not read `violations`; the field
// stays on the wire until the version bump of filter-gated reports
// (ROADMAP item 12(c)).
#pragma once

#include <memory>
#include <string>

#include "net/link.hpp"
#include "net/wire.hpp"
#include "sim/stats_snapshot.hpp"

namespace topkmon::net {

class NodeHost {
 public:
  /// `link` connects to the coordinator; `host_index` ∈ [0, host_count).
  NodeHost(std::unique_ptr<Link> link, std::uint32_t host_index,
           std::uint32_t host_count);
  ~NodeHost();

  /// Handshake + step loop until Shutdown. 0 on clean shutdown; nonzero on
  /// protocol/link errors (see error()).
  int run();

  /// The coordinator's final aggregate stats (valid after a clean run()).
  const StatsSnapshot& final_stats() const { return final_stats_; }

  /// This link's transport counters.
  const NetChannelStats& link_stats() const { return link_->stats(); }

  /// Quiescence errors this host reported across the run.
  std::uint64_t quiescence_errors() const { return quiescence_errors_; }

  const std::string& error() const { return error_; }

 private:
  struct State;  ///< workload machinery built from the Config message

  int fail(const std::string& why);
  bool handle_step_begin(TimeStep t);
  bool handle_filter_update(const FilterUpdateMsg& m);

  std::unique_ptr<Link> link_;
  std::uint32_t host_index_;
  std::uint32_t host_count_;
  std::unique_ptr<State> state_;
  StatsSnapshot final_stats_;
  std::uint64_t quiescence_errors_ = 0;
  std::string error_;
};

}  // namespace topkmon::net
