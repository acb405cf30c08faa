// NetCoordinator — the control-plane process of the networked runtime.
//
// The coordinator owns the *unmodified* monitoring protocol on an
// externally-driven Simulator: per step it assembles the full effective
// observation vector from the node-hosts' shard reports, windows it in a
// window-only FleetPipeline, feeds it through Simulator::step_on (which books
// messages and runs the protocol exactly as the in-process simulator does),
// then ships the step's filter deltas back to the shards. Consequences:
//
//   * Model-level accounting (CommStats: messages, kinds, tags, rounds,
//     losses, recoveries) is produced by the very same code as the
//     in-process Simulator — a loss-free networked run reproduces the
//     simulator's RunResult bit-identically (asserted in tests/test_net.cpp
//     and fuzzed in tests/test_differential.cpp).
//   * Wire-level traffic is accounted separately per link
//     (NetChannelStats), summed into RunResult::net.
//
// Fault plumbing: the Simulator's SimConfig carries the FleetSchedule (loss
// accounting + scripted membership recovery); value-level faults come from
// the node-hosts' pipelines, which own the data plane, and their per-shard
// stale-read counts arrive as StepFacts::stale_reads. When a link comes back
// from a scripted outage, that step runs MonitoringProtocol::
// on_membership_change and books a recovery round (StepFacts::recovery), so
// reconnections exercise the same path scripted churn does.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/wire.hpp"
#include "sim/simulator.hpp"

namespace topkmon::telemetry {
class TelemetrySink;
}

namespace topkmon::net {

/// Contiguous shard partition: host h of H owns [h·n/H, (h+1)·n/H).
std::uint32_t shard_lo(std::size_t n, std::uint32_t hosts, std::uint32_t host);

/// The frame-loss stream of the coordinator's end of host `host`'s link:
/// one per link, derived from the fault seed — independent of the model's
/// message-loss stream (0x1055) and of the node ends. Every coordinator
/// mode arms its links with it.
Rng coordinator_link_loss_rng(const RunSpec& spec, std::uint32_t host);

/// The protocol's final answers beyond F(T), one per query kind it serves
/// (sim/protocol.hpp QueryCapabilities). Bit-identical to a standalone
/// Simulator's on a loss-free schedule, like the rest of the run.
struct QueryAnswers {
  /// kselect(1..min(max rank, k)) when the protocol serves
  /// QueryKind::kKSelect; empty otherwise.
  std::vector<Value> kselect_estimates;

  /// Final count-distinct answer when the protocol serves
  /// QueryKind::kCountDistinct; nullopt otherwise.
  std::optional<std::uint64_t> distinct_count;

  /// Final nodes-above-T count when the protocol serves
  /// QueryKind::kThreshold; nullopt otherwise (alert ⇔ *threshold_above > 0).
  std::optional<std::uint64_t> threshold_above;
};

class NetCoordinator {
 public:
  /// One link per node-host, in accept order; the Hello handshake maps links
  /// to host indices. Throws std::runtime_error on an invalid spec.
  NetCoordinator(RunSpec spec, std::vector<std::unique_ptr<Link>> links);
  ~NetCoordinator();

  /// Attaches telemetry: the simulator's full namespace plus the net.*
  /// transport counters, refreshed after every step. Must precede run().
  void attach_telemetry(telemetry::TelemetrySink* sink);

  /// Handshake, all steps, shutdown. Returns the aggregate statistics —
  /// model counters bit-identical to the in-process Simulator on a loss-free
  /// schedule, plus the summed transport counters in `.net`. Throws
  /// std::runtime_error when a node-host misbehaves or a link dies.
  RunResult run();

  /// The protocol's final output F(T) (valid after run()).
  const OutputSet& output() const;

  /// The protocol's final query answers (valid after run()).
  QueryAnswers answers() const;

  /// Sum of the quiescence errors every host reported (0 on a correct run).
  std::uint64_t quiescence_errors() const { return quiescence_errors_; }

  const Simulator& sim() const { return *sim_; }
  Simulator& sim() { return *sim_; }

  /// Per-link transport counters, indexed by host (valid after handshake).
  const NetChannelStats& link_stats(std::uint32_t host) const;

 private:
  void handshake();
  void step(TimeStep t);
  NetChannelStats net_total() const;
  void publish_net_telemetry();

  RunSpec spec_;
  std::vector<std::unique_ptr<Link>> links_;       ///< accept order
  std::vector<Link*> link_of_host_;                ///< host index -> link
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<FleetPipeline> window_;          ///< window-only pipeline
  ValueVector assembled_;                          ///< full effective vector
  std::uint64_t quiescence_errors_ = 0;
  telemetry::TelemetrySink* telemetry_ = nullptr;
  StatsSnapshotIds stats_ids_{};
};

/// In-process networked run: spawns `hosts` NodeHost threads over loopback
/// links, runs the coordinator on the calling thread, joins everything.
/// The differential oracle's entry point — same frames, zero sockets.
/// The inherited QueryAnswers are the coordinator's final answers.
struct InprocNetReport : QueryAnswers {
  RunResult run;          ///< coordinator result (net counters filled)
  OutputSet output;       ///< final F(T)
  std::uint64_t quiescence_errors = 0;
  std::vector<int> host_exit;  ///< per-host run() status (all 0 on success)
};

struct InprocNetOptions {
  std::uint32_t hosts = 2;

  /// Frame-level loss probability on every link; negative = inherit the
  /// spec's FaultConfig::loss (wire frames drop as often as model messages).
  double link_loss = -1.0;

  /// Scripted outages: {host, coordinator→node side?, outage}.
  struct ScriptedOutage {
    std::uint32_t host = 0;
    bool coordinator_side = true;  ///< outage on coord→node sends, else node→coord
    LinkOutage outage;
  };
  std::vector<ScriptedOutage> outages;

  telemetry::TelemetrySink* sink = nullptr;  ///< optional coordinator sink
};

InprocNetReport run_networked_inproc(const RunSpec& spec,
                                     const InprocNetOptions& opts);

}  // namespace topkmon::net
