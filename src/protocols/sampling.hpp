// Standalone sampling protocols (Lemma 2.6) over plain value vectors.
//
// These run SimContext's sample_max core (sample_max_over) outside a
// simulator, so benches and tests can measure the message cost of a single
// invocation in isolation (experiment E2).
//
// Protocol (threshold sampling): the server repeatedly runs EXISTENCE over
// "my value ranks above the announced best"; the senders of the stopping
// round are a random non-empty sample of the active set, the server takes
// their maximum and broadcasts it as the new threshold. Each iteration costs
// O(1) expected node→server messages plus one broadcast and halves the
// active set in expectation, giving O(log n) messages overall — the bound
// Lemma 2.6 requires from [6].
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "model/types.hpp"
#include "util/rng.hpp"

namespace topkmon {

struct SampleMaxOutcome {
  NodeId id = 0;
  Value value = 0;
  bool found = false;
  std::uint64_t messages = 0;  ///< node→server + broadcast messages
  std::uint64_t rounds = 0;    ///< EXISTENCE rounds consumed
  std::uint64_t iterations = 0;
};

/// Maximum (value, id tie-break) over all nodes. O(log n) messages expected.
SampleMaxOutcome sample_max_standalone(std::span<const Value> values, Rng& rng);

struct ProbeTopOutcome {
  std::vector<std::pair<NodeId, Value>> top;  ///< descending rank order
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
};

/// Top-m nodes by repeated sample_max with exclusion. O(m log n) expected.
ProbeTopOutcome probe_top_standalone(std::span<const Value> values, std::size_t m,
                                     Rng& rng);

/// Ablation comparator: deterministic bisection on the VALUE domain — the
/// server halves [0, Δ] with EXISTENCE threshold queries until one node
/// remains. O(log Δ) expected messages instead of Lemma 2.6's O(log n);
/// with Δ ≫ n the sampling protocol wins (experiment E8d). Requires the
/// maximum value to be unique or resolved by the final id round.
SampleMaxOutcome bisect_max_standalone(std::span<const Value> values, Value delta,
                                       Rng& rng);

}  // namespace topkmon
