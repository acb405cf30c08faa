// Shared input for the σ(t) reuse tests (Simulator and engine): vectors that
// repeat (quiescent steps) and change. Each phase draws a fresh vector from a
// band that narrows phase by phase, so σ(t) grows, then repeats it, moves
// one node, and repeats again.
#pragma once

#include <vector>

#include "model/types.hpp"
#include "util/rng.hpp"

namespace topkmon {

inline std::vector<ValueVector> repeating_schedule(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ValueVector> rows;
  for (int phase = 0; phase < 8; ++phase) {
    const Value range = Value{1} << (20 - 2 * phase);
    ValueVector v(n);
    for (auto& x : v) x = (Value{1} << 20) + rng.below(range);
    rows.insert(rows.end(), 3, v);
    v[rng.below(n)] = (Value{1} << 20) + rng.below(range);
    rows.insert(rows.end(), 2, v);
  }
  return rows;
}

}  // namespace topkmon
