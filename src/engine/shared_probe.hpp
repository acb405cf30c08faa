// SharedProbe — the engine's cross-query probe_top batching channel.
//
// All queries of one engine observe the same value snapshot, and
// `probe_top(m)` asks a query-independent question: the global top-m by
// (value, id). So within a time step the engine answers it ONCE: the first
// query needing rank j pays for computing it (Lemma 2.6 sampling over the
// snapshot, accounted into this object's CommStats); every other query reads
// the cached ranking for free — in the Cormode-style costing the server
// already holds the answer, and node-side recomputation is free.
//
// Determinism across shard/thread schedules: a probe's *outcome* depends
// only on the snapshot (the true ranking), never on randomness — randomness
// only drives the message cost. The cache extends rank by rank under a
// mutex with a dedicated RNG, and the existence/sampling cost of computing
// rank j is a function of (snapshot, ranks 0..j−1, RNG state); since ranks
// are always computed in order 0, 1, 2, … regardless of which shard asks
// first, the RNG consumption — and therefore every counter — is identical
// for any interleaving. The per-step total cost is determined by the deepest
// rank any query requests, which is itself deterministic.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/comm_stats.hpp"
#include "sim/context.hpp"
#include "util/rng.hpp"

namespace topkmon {

class SharedProbe : public ProbeSharer {
 public:
  explicit SharedProbe(std::uint64_t seed);

  /// Arms the sharer for the next time step: clears the per-step cache and
  /// points it at the step's value snapshot (borrowed; must stay alive for
  /// the step). Called serially by the engine before shards run.
  void begin_step(const ValueVector* snapshot);

  /// ProbeSharer: cached global top-m, extending the cache as needed.
  std::vector<ProbeResult> top(std::size_t m) override;

  /// Messages/rounds booked for shared probing (the once-per-step cost).
  const CommStats& stats() const { return stats_; }

  /// Arms lossy-link accounting (src/faults) on the shared probe channel.
  /// Deterministic for any shard schedule: ranks extend in order 0, 1, 2, …
  /// under the cache mutex, so the loss RNG consumption is schedule-free.
  void enable_loss(double p, Rng rng) { stats_.enable_loss(p, std::move(rng)); }

  /// probe_top requests served through the shared channel, and ranks
  /// actually computed (once per step each). Both are schedule-independent:
  /// every query's call count is deterministic, and per step exactly the
  /// ranks up to the deepest request are computed regardless of which shard
  /// asks first. calls × m vs ranks_computed is the work collapsed.
  std::uint64_t calls() const { return calls_; }
  std::uint64_t ranks_computed() const { return ranks_computed_; }

 private:
  /// Computes ranks until the cache holds `m` entries (or the fleet is
  /// exhausted). Caller holds mu_.
  void extend_locked(std::size_t m);

  mutable std::mutex mu_;
  Rng rng_;
  const ValueVector* snapshot_ = nullptr;
  std::vector<ProbeResult> cache_;
  std::vector<NodeId> pool_;    ///< nodes not ranked yet this step (ascending)
  std::vector<NodeId> active_;  ///< sample_max scratch
  bool exhausted_ = false;
  CommStats stats_;
  std::uint64_t calls_ = 0;
  std::uint64_t ranks_computed_ = 0;
};

}  // namespace topkmon
