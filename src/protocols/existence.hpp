// EXISTENCE protocol (Lemma 3.1).
//
// All nodes hold a bit; the server must decide the disjunction. Nodes with a
// 0 deactivate. In round r = 0, 1, …, ⌈log2 n⌉ every active node sends
// independently with probability p_r = 2^r / n (clamped to 1); the protocol
// stops at the first round in which at least one message is sent, or after
// the final round (in which active nodes send with probability 1, so silence
// proves the disjunction is false). Las Vegas: the answer is always correct;
// only the message count is random — O(1) in expectation (the paper bounds
// it by ~6), ⌈log2 n⌉ + 1 rounds worst case.
//
// Every sender attaches its id and current value (fits the O(log n + log Δ)
// message-size budget), which is what makes this usable for violation
// reporting and threshold queries: the server learns a non-empty *sample* of
// the witnesses, not just the bit.
//
// Active-list core: the node-side deactivation is decided once per run, so
// the simulation takes the active set itself — an ascending span of the ids
// whose bit is 1 — and only the per-round draws remain. Callers that keep a
// persistent active list across runs (sample_max filters it after every
// improvement, enumerate_nodes drops each run's senders) pay O(|active|)
// per run instead of O(n) predicate calls. The draw scheme is fixed: one
// Bernoulli draw per active node, in id order, per round, and none in a
// round with p ≥ 1 — so every message, round and answer is a function of
// (n, active set, RNG state) alone, however the caller built the list.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/types.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace topkmon {

struct ExistenceHit {
  NodeId id;
  Value value;
};

struct ExistenceResult {
  bool any = false;                  ///< the disjunction
  std::vector<ExistenceHit> senders; ///< witnesses heard in the stopping round, id order
  std::uint64_t messages = 0;        ///< node→server messages actually sent
  std::uint64_t rounds = 0;          ///< rounds consumed (≤ ⌈log2 n⌉ + 1)
};

class ExistenceProtocol {
 public:
  /// Runs the protocol on a fleet of n nodes whose active (bit = 1) nodes
  /// are `active` — ascending ids, each < n. `value(i)` supplies the payload
  /// a sender attaches; it is called for senders only.
  template <class ValueOf>
  static ExistenceResult run_active(std::size_t n, std::span<const NodeId> active,
                                    ValueOf&& value, Rng& rng);

  /// Runs the protocol over nodes {0,…,n−1}: `bit(i)` is evaluated
  /// node-side (free), once per node.
  template <class Bit, class ValueOf>
  static ExistenceResult run(std::size_t n, Bit&& bit, ValueOf&& value, Rng& rng) {
    std::vector<NodeId> active;
    for (NodeId i = 0; i < n; ++i) {
      if (bit(i)) active.push_back(i);
    }
    return run_active(n, active, value, rng);
  }

  /// Convenience for plain bit vectors (benches/tests); senders attach their id.
  static ExistenceResult run(const std::vector<bool>& bits, Rng& rng);

  /// Number of rounds the protocol may use for n nodes: ⌈log2 n⌉ + 1.
  static std::uint64_t max_rounds(std::size_t n);
};

template <class ValueOf>
ExistenceResult ExistenceProtocol::run_active(std::size_t n,
                                              std::span<const NodeId> active,
                                              ValueOf&& value, Rng& rng) {
  TOPKMON_ASSERT(n > 0);
  ExistenceResult res;
  const std::uint64_t rounds = max_rounds(n);
  if (active.empty()) {
    // No node will ever send; the server waits out the schedule. Silence
    // through the final (p=1) round proves the disjunction is false.
    res.rounds = rounds;
    return res;
  }
  for (std::uint64_t r = 0; r < rounds; ++r) {
    ++res.rounds;
    const std::uint64_t shift = std::min<std::uint64_t>(r, 63);
    const double p = std::min(1.0, static_cast<double>(std::uint64_t{1} << shift) /
                                       static_cast<double>(n));
    if (p >= 1.0) {
      // Rng::bernoulli(p ≥ 1) is true without a draw: every active node sends.
      for (const NodeId i : active) {
        res.senders.push_back({i, value(i)});
      }
    } else {
      // The integer form of Rng::bernoulli(p): the same outcome per draw.
      const std::uint64_t bound = Rng::bernoulli_bound(p);
      // Drawing from a local copy keeps the xoshiro state in registers
      // instead of storing it through the reference on every draw.
      Rng local = rng;
      for (const NodeId i : active) {
        if (local.bernoulli_bounded(bound)) {
          res.senders.push_back({i, value(i)});
        }
      }
      rng = local;
    }
    if (!res.senders.empty()) {
      res.any = true;
      res.messages = res.senders.size();
      return res;
    }
  }
  TOPKMON_ASSERT_MSG(false, "final round has p=1; active nodes must send");
  return res;
}

}  // namespace topkmon
