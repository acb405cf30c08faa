// Sliding-window value model — per-node window maxima over the last W steps.
//
// The paper's protocols monitor the *instantaneous* observation v_i^t of
// every node. Production monitoring is usually windowed ("top-k over the
// last W steps", cf. Chan–Lam–Lee–Ting): node i's monitored reading at step
// t becomes max{ v_i^s : t−W < s ≤ t }. The WindowedValueModel realizes that
// transform as a per-node monotonic deque — O(1) amortized per node per
// step, O(W) worst-case memory per node — and is the FleetPipeline's last
// stage, right after fault injection (between Stream and Node), so every
// protocol runs unmodified against windowed readings: the windowed vector is
// just another value stream.
//
// Storage is structure-of-arrays: all n monotonic deques live in two flat
// preallocated arenas (timestamps and values) plus per-node head/length
// arrays. The arenas are *slot-major* — ring slot j of node i sits at
// j·n + i — so when deques are short and heads aligned (the overwhelmingly
// common case: a monotonic deque holds one entry per decreasing run), the
// per-step walk over all nodes reads contiguous memory instead of chasing
// per-node deque chunks W entries apart. A deque holds at most W entries
// (strictly decreasing values with timestamps inside the window), so the
// rings never grow: steady-state stepping allocates nothing. Semantics are
// bit-identical to the reference deque formulation (differentially fuzzed
// against naive_window_max in tests).
//
// The arena commits n·W entries up front; when that exceeds
// `max_arena_entries` (huge W on a huge fleet, e.g. `--window 100000` over
// 16k nodes would be tens of GB) the model falls back to per-node growable
// deques — occupancy-proportional memory, identical outputs, merely without
// the flat-arena locality and allocation-freedom.
//
// W = ∞ (represented as kInfiniteWindow = 0) means "no windowing": the model
// is simply not installed and observations pass through untouched, which is
// the paper's semantics and bit-identical to the pre-window code path.
//
// A *window expiry* at node i is a step where i's window maximum strictly
// drops because the old maximum slid out of the window and an older
// *retained* observation took over — the fresh observation did not replace
// it (so W = 1 never expires: the fresh observation is always the maximum,
// exactly the unwindowed semantics). Expiries are the windowed counterpart of the
// fault layer's stale reads: a fleet-level signal (surfaced as
// `window_expirations` in RunResult/EngineStats) and the trigger for the
// protocols' cache-invalidation hook (MonitoringProtocol::on_window_expiry).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "model/types.hpp"

namespace topkmon {

/// Window length meaning "unwindowed" (the paper's instantaneous semantics).
inline constexpr std::size_t kInfiniteWindow = 0;

class WindowedValueModel {
 public:
  /// Largest n·W the flat ring arenas may commit up front (2^22 entries
  /// ≈ 64 MB); beyond it the model uses per-node growable deques instead.
  static constexpr std::size_t kDefaultMaxArenaEntries = std::size_t{1} << 22;

  /// Model for an n-node fleet with window length `window` ≥ 1. The ring
  /// arenas (n·W entries) are allocated here, once — unless n·W exceeds
  /// `max_arena_entries` (see file comment; parameter exposed for tests).
  WindowedValueModel(std::size_t n, std::size_t window,
                     std::size_t max_arena_entries = kDefaultMaxArenaEntries);

  /// Absorbs the step-t observation vector (size n) and returns the per-node
  /// window maxima — max over the last min(W, t+1) observations. Must be
  /// called once per step with consecutive t starting at 0; the returned
  /// reference is owned by the model and valid until the next call.
  const ValueVector& push(TimeStep t, const ValueVector& raw);

  /// The current windowed vector (last push result).
  const ValueVector& values() const { return out_; }

  std::size_t n() const { return head_.size(); }
  std::size_t window() const { return window_; }

  /// Nodes whose window maximum dropped by pure eviction in the most recent
  /// push() (see file comment).
  std::uint64_t last_expirations() const { return last_expirations_; }

  /// Window expiries across all steps so far.
  std::uint64_t total_expirations() const { return total_expirations_; }

 private:
  struct Entry {
    TimeStep t;
    Value v;
  };

  void push_arena(TimeStep t, const ValueVector& raw);
  /// Whole-fleet vectorized row merge for the uniform single-entry shape;
  /// returns false (touching nothing) when any deque breaks the shape.
  bool try_push_arena_vectorized(TimeStep t, const ValueVector& raw);
  void push_sparse(TimeStep t, const ValueVector& raw);

  std::size_t window_;
  // SoA ring arenas, slot-major (entry (i, j) at j·n + i): node i's deque is
  // the len_[i] slots starting at ring slot head_[i], values strictly
  // decreasing front→back. Empty in sparse mode.
  std::vector<TimeStep> ring_t_;       ///< n·W entry timestamps
  ValueVector ring_v_;                 ///< n·W entry values
  std::vector<std::uint32_t> head_;    ///< per node: ring slot of the front
  std::vector<std::uint32_t> len_;     ///< per node: live entry count
  /// Sparse fallback (n·W over the arena cap): per-node growable deques,
  /// same monotonic algorithm, occupancy-proportional memory.
  std::vector<std::deque<Entry>> sparse_;
  ValueVector out_;
  TimeStep next_t_ = 0;
  std::uint32_t fastpath_cooldown_ = 0;  ///< steps to skip the vector probe
  std::uint64_t last_expirations_ = 0;
  std::uint64_t total_expirations_ = 0;
};

/// Reference recomputation for tests and offline tooling: row `row` of the
/// windowed history — per-node max over raw rows (row−W, row]. O(n·W).
ValueVector naive_window_max(const std::vector<ValueVector>& history,
                             std::size_t row, std::size_t window);

/// The whole history windowed: row t = per-node max over raw rows (t−W, t].
/// W = kInfiniteWindow returns the history unchanged. O(T·n) via the model.
std::vector<ValueVector> windowed_history(const std::vector<ValueVector>& history,
                                          std::size_t window);

}  // namespace topkmon
