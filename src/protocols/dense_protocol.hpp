// DENSEPROTOCOL + SUBPROTOCOL (Sect. 5.2, Theorem 5.8).
//
// Competing against an offline algorithm that may itself use the error ε is
// hard (Theorem 5.1: Ω(σ/k) lower bound); this component implements the
// paper's upper-bound machinery. Around the pivot z (≈ the k-th largest
// value at start) nodes are partitioned into
//   V1 — certified "must be in any optimal output" (v > z/(1−ε) observed),
//   V3 — certified "cannot be in any optimal output" (v < (1−ε)z observed),
//   V2 — the ε-neighborhood in between; only V2 membership is ambiguous.
// The server maintains an integer-grid interval L ⊆ [(1−ε)z, z] with the
// invariant ℓ* ∈ L: any offline filter assignment that has not communicated
// must use a separator lower-bound ℓ* inside L. Each round broadcasts
// ℓ_r = midpoint(L) and u_r = ℓ_r/(1−ε); candidate sets S1 (observed above
// u_r) and S2 (observed below ℓ_r) track V2 nodes whose membership in the
// output is being contested. A node landing in S1 ∩ S2 — seen both above
// u_r and below ℓ_r — triggers the nested SUBPROTOCOL, which runs the same
// halving game on L' = L ∩ [(1−ε)z, ℓ_r] with its own candidate sets S'1,
// S'2 until it can either commit that node to V1/V3 or halve L. When L
// empties, no feasible ℓ* remains: OPT must have communicated, and the
// caller recomputes from scratch.
//
// Deviations from the paper's pseudo-code (which is under-specified in
// places) are marked [D#] in the implementation:
//   [D1] counts "observed above/below" use per-node last-reported values
//        re-checked against the *current* thresholds (the pseudo-code's
//        b.1 literally says u_r, but its proof, Lemma 5.6, argues with
//        u'_r'; we follow the proof).
//   [D2] halving on the integer grid: "lower half" keeps [lo, ⌊ℓ_r⌋]
//        (or [lo, ⌈ℓ_r⌉−1] when the bound is strict), "upper half" keeps
//        [⌈ℓ_r⌉, hi]; a single-point interval empties on any halving
//        (the paper's rule). WLOG OPT uses integer filter endpoints, so
//        the invariant ℓ* ∈ L is preserved.
//   [D3] if set bookkeeping ever fails to yield exactly k output
//        candidates, the component reports kInconsistent and the caller
//        recomputes — a safety valve that preserves correctness and costs
//        one probe (Lemma 5.2 argues it is unreachable).
//
// Knowledge bookkeeping: V1 and V2 are kept as member lists (V2 ascending,
// which is the output pool's tie order) and S1, S2, S'1, S'2 as byte masks
// with member lists, so the counters and the output rebuild cost
// O(|V1| + |V2|) per violation instead of a rescan of all n nodes.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "protocols/generic_framework.hpp"
#include "sim/protocol.hpp"

namespace topkmon {

class DenseComponent {
 public:
  enum class Role : std::uint8_t { kV1, kV2, kV3 };

  enum class Outcome : std::uint8_t {
    kRunning,        ///< violation absorbed; keep monitoring
    kIntervalEmpty,  ///< L = ∅: OPT communicated; recompute from scratch
    kUniqueTopK,     ///< step 3.d: output unique; switch to TOP-K-PROTOCOL
    kInconsistent,   ///< [D3] bookkeeping failed; recompute from scratch
  };

  /// Seeds the component: pivot z := info.vk; classifies roles (probing the
  /// ε-neighborhood costs O(σ + k) expected on top of the probe the caller
  /// already paid). Requires the dense precondition vk1 ≥ (1−ε)·vk.
  Outcome begin(SimContext& ctx, const ProbeInfo& info);

  /// Handles one live violation; see Outcome.
  Outcome handle_violation(SimContext& ctx, NodeId id, Value value, Violation side);

  const OutputSet& output() const { return output_; }

  // Introspection for tests/benches.
  bool sub_active() const { return sub_active_; }
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t sub_calls() const { return sub_calls_; }
  std::uint64_t sub_rounds() const { return sub_rounds_; }
  Role role(NodeId i) const { return role_[i]; }
  bool in_s1(NodeId i) const { return s1_.has(i); }
  bool in_s2(NodeId i) const { return s2_.has(i); }
  bool in_sp1(NodeId i) const { return sp1_.has(i); }
  bool in_sp2(NodeId i) const { return sp2_.has(i); }
  double pivot_z() const { return z_; }
  bool interval_empty() const { return l_lo_ > l_hi_; }
  Value interval_lo() const { return l_lo_; }
  Value interval_hi() const { return l_hi_; }
  Value sub_interval_lo() const { return sub_lo_; }
  Value sub_interval_hi() const { return sub_hi_; }
  std::size_t v1_count() const { return v1_.size(); }
  std::size_t v3_count() const { return v3_count_; }
  /// Node i's last reported value; negative if it never reported.
  double last_report(NodeId i) const { return last_report_[i]; }
  double lr() const { return lr_cached_; }  ///< ℓ_r: midpoint of L on the grid
  double ur() const { return ur_cached_; }  ///< u_r = ℓ_r / (1−ε)
  double sub_ur() const { return sub_ur_cached_; }  ///< u'_r' of the subprotocol

  // Knowledge counters [D1], over the member lists:
  /// |V1| + |{i ∈ S1 : last report > u_r}|.
  std::size_t count_above_ur() const;
  /// |V3| + |{i ∈ S2 : last report < ℓ_r}|.
  std::size_t count_below_lr() const;
  /// |V1| + |{i ∈ S'1 : last report > u'_r'}|.
  std::size_t sub_count_above() const;
  /// |V3| + |{i ∈ S'2 : last report < ℓ_r}|.
  std::size_t sub_count_below() const;

 private:
  /// A node subset: a byte mask for O(1) membership plus its members in
  /// insertion order for O(|set|) iteration.
  class NodeSet {
   public:
    void reset(std::size_t n) {
      mask_.assign(n, 0);
      members_.clear();
    }
    bool has(NodeId i) const { return mask_[i] != 0; }
    void insert(NodeId i);
    void erase(NodeId i);
    void clear();
    void assign(const NodeSet& other);
    std::span<const NodeId> members() const { return members_; }

   private:
    std::vector<std::uint8_t> mask_;
    std::vector<NodeId> members_;
  };

  // ---- main-protocol helpers ----
  void recompute_thresholds();
  bool rebuild_output();  ///< false → inconsistent [D3]
  void apply_filters(SimContext& ctx);
  Filter filter_for(const Node& node) const;
  bool unique_topk() const;

  enum class Half : std::uint8_t { kLowerStrict, kLowerInclusive, kUpper };
  /// Halves L per [D2]; returns false if L became empty.
  bool halve(Half h);

  Outcome after_halve(SimContext& ctx, Half h, bool clear_s1, bool clear_s2);
  Outcome finish_violation(SimContext& ctx);

  // ---- subprotocol ----
  Outcome start_sub(SimContext& ctx, NodeId trigger);
  Outcome handle_sub_violation(SimContext& ctx, NodeId id, Value value,
                               Violation side);
  bool sub_halve(Half h);
  /// Ends the subprotocol; resumes the main round (filters rebroadcast by
  /// the caller via finish_violation / after_halve).
  void terminate_sub();
  void leave_v2(NodeId id, Role to);  ///< drops id from V2 and every S set
  void move_to_v1(NodeId id);
  void move_to_v3(NodeId id);

  double z_ = 0.0;
  double eps_ = 0.0;
  std::size_t k_ = 0;
  std::size_t n_ = 0;

  std::vector<Role> role_;
  std::vector<NodeId> v1_;  ///< V1 members
  std::vector<NodeId> v2_;  ///< V2 members, ascending id
  std::size_t v3_count_ = 0;
  NodeSet s1_, s2_;
  std::vector<double> last_report_;  ///< negative = never reported

  // L on the integer grid; empty iff l_lo_ > l_hi_.
  Value l_lo_ = 0, l_hi_ = 0;
  double lr_cached_ = 0.0, ur_cached_ = 0.0;

  // Subprotocol state.
  bool sub_active_ = false;
  NodeId sub_trigger_ = 0;
  NodeSet sp1_, sp2_;
  Value sub_lo_ = 0, sub_hi_ = 0;
  double sub_lr_cached_ = 0.0, sub_ur_cached_ = 0.0;
  std::optional<NodeId> sub_last_above_violator_;

  OutputSet output_;
  std::vector<std::uint8_t> in_output_;  ///< membership mask of output_
  OutputSet next_output_;                ///< rebuild_output scratch
  std::vector<NodeId> pool_;             ///< rebuild_output scratch
  std::uint64_t rounds_ = 0;
  std::uint64_t sub_calls_ = 0;
  std::uint64_t sub_rounds_ = 0;
};

}  // namespace topkmon
