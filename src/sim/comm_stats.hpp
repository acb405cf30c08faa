// Message accounting — the cost measure of the continuous monitoring model.
//
// Every message crossing the (simulated) network is counted here with a kind
// (direction) and a purpose tag. The paper's efficiency metric is the total
// number of messages; tags exist so benches can attribute cost to protocol
// phases (probing vs violation reporting vs filter redistribution).
// Rounds are also tracked per time step to verify the polylog-round budget.
//
// Fault awareness (src/faults): with a lossy-link model enabled, each counted
// message independently drops with probability p and is retransmitted until
// delivered — protocol logic is unchanged, but every drop costs one extra
// message of the same kind/tag and increments `messages_lost`. Stale reads
// and recovery rounds are booked here too so RunResult/EngineStats can
// surface all fault metrics from one place.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace topkmon {

enum class MessageKind : std::uint8_t {
  kNodeToServer = 0,
  kServerToNode = 1,
  kBroadcast = 2,
};
inline constexpr std::size_t kNumMessageKinds = 3;

enum class MessageTag : std::uint8_t {
  kExistence = 0,     ///< sends inside the EXISTENCE subprotocol
  kViolation = 1,     ///< filter-violation reports
  kProbe = 2,         ///< max/top-m sampling traffic
  kFilterBroadcast = 3,  ///< broadcast separator / filter rule updates
  kFilterUnicast = 4, ///< per-node role or filter assignments
  kOther = 5,
};
inline constexpr std::size_t kNumMessageTags = 6;

std::string to_string(MessageKind k);
std::string to_string(MessageTag t);

class CommStats {
 public:
  void count(MessageKind kind, MessageTag tag, std::uint64_t n = 1);

  /// Called by the simulator at the start of each time step.
  void begin_step();
  /// Protocol-side: records `r` communication rounds consumed at this step.
  void add_rounds(std::uint64_t r);

  std::uint64_t total() const { return total_; }
  std::uint64_t by_kind(MessageKind k) const {
    return kind_[static_cast<std::size_t>(k)];
  }
  std::uint64_t by_tag(MessageTag t) const { return tag_[static_cast<std::size_t>(t)]; }

  std::uint64_t steps() const { return steps_; }
  std::uint64_t rounds_this_step() const { return rounds_this_step_; }
  std::uint64_t max_rounds_per_step() const { return max_rounds_per_step_; }
  std::uint64_t total_rounds() const { return total_rounds_; }
  std::uint64_t messages_this_step() const { return total_ - total_at_step_start_; }

  // ---- fault model (src/faults) ------------------------------------------

  /// Enables the lossy-link model: every subsequent count() draws, per
  /// message, a geometric number of drops with probability `p` from `rng`.
  /// p = 0 disables the model and performs no draws at all (bit-identical
  /// accounting to a CommStats without loss).
  void enable_loss(double p, Rng rng);

  /// Injector-side: `n` node observations served stale this step.
  void add_stale_reads(std::uint64_t n) { stale_reads_ += n; }
  /// Simulator-side: one membership-change recovery round executed.
  void add_recovery() { ++recovery_rounds_; }

  std::uint64_t messages_lost() const { return messages_lost_; }
  std::uint64_t stale_reads() const { return stale_reads_; }
  std::uint64_t recovery_rounds() const { return recovery_rounds_; }

  /// Resets all counters; the loss model (p and RNG state) is preserved.
  void reset();

  /// Multi-line human-readable report.
  std::string report() const;

 private:
  std::uint64_t total_ = 0;
  std::array<std::uint64_t, kNumMessageKinds> kind_{};
  std::array<std::uint64_t, kNumMessageTags> tag_{};
  std::uint64_t steps_ = 0;
  std::uint64_t rounds_this_step_ = 0;
  std::uint64_t max_rounds_per_step_ = 0;
  std::uint64_t total_rounds_ = 0;
  std::uint64_t total_at_step_start_ = 0;

  double loss_p_ = 0.0;
  Rng loss_rng_{0};
  std::uint64_t messages_lost_ = 0;
  std::uint64_t stale_reads_ = 0;
  std::uint64_t recovery_rounds_ = 0;
};

}  // namespace topkmon
