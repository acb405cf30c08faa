// StatsSnapshot — the one struct every run-statistics surface shares.
//
// RunResult (standalone Simulator and the networked coordinator, src/net)
// and EngineStats (MonitoringEngine) both derive from it, so every driver
// reports the same core: the model-level message accounting (CommStats
// totals, kinds, tags, rounds), the fault metrics, the window metric, and
// the transport-level per-link counters. Each driver computes its snapshot
// in one place (Simulator::result, MonitoringEngine's engine-wide total),
// registers it into a MetricsRegistry through ONE registration point
// (register_stats_metrics) and publishes it through ONE write point
// (publish_stats), so a new counter is added in exactly one place.
//
// Model messages vs transport frames: CommStats counts the *paper's* cost
// measure (protocol messages of the monitoring model); NetChannelStats
// counts the *wire* (frames/bytes/retries of the real transport). A
// loss-free networked run reproduces the model counters of the in-process
// simulator bit-identically while still reporting real wire traffic.
#pragma once

#include <array>
#include <cstdint>

#include "sim/comm_stats.hpp"
#include "telemetry/metrics.hpp"

namespace topkmon {

/// Transport-level counters of one (or a sum of) coordinator⇄node-host
/// link(s) in the networked runtime (src/net). All-zero for in-process runs.
struct NetChannelStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_recv = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t send_retries = 0;  ///< frame retransmissions (lossy links)
  std::uint64_t reconnects = 0;    ///< link outages recovered

  NetChannelStats& operator+=(const NetChannelStats& o) {
    frames_sent += o.frames_sent;
    frames_recv += o.frames_recv;
    bytes_sent += o.bytes_sent;
    bytes_recv += o.bytes_recv;
    send_retries += o.send_retries;
    reconnects += o.reconnects;
    return *this;
  }

  friend bool operator==(const NetChannelStats&, const NetChannelStats&) = default;
};

struct StatsSnapshot {
  // ---- model-level communication (CommStats) ------------------------------
  std::uint64_t messages = 0;
  std::uint64_t node_to_server = 0;
  std::uint64_t server_to_node = 0;
  std::uint64_t broadcasts = 0;
  std::array<std::uint64_t, kNumMessageTags> by_tag{};
  std::uint64_t rounds = 0;  ///< total communication rounds across all steps

  // ---- fault metrics (src/faults; zero on the fault-free path) ------------
  std::uint64_t messages_lost = 0;    ///< retransmissions on lossy links
  std::uint64_t stale_reads = 0;      ///< observations served from the past
  std::uint64_t recovery_rounds = 0;  ///< membership/link recoveries run

  // ---- window metric (src/model/window.hpp; zero unwindowed) --------------
  std::uint64_t window_expirations = 0;

  // ---- transport counters (src/net; zero in-process) ----------------------
  NetChannelStats net{};

  /// The CommStats-derived part of the snapshot (net stays zero).
  static StatsSnapshot from(const CommStats& s,
                            std::uint64_t window_expirations = 0);

  /// Field-wise sum — aggregating many shards/queries/links into one report.
  StatsSnapshot& operator+=(const StatsSnapshot& o) {
    messages += o.messages;
    node_to_server += o.node_to_server;
    server_to_node += o.server_to_node;
    broadcasts += o.broadcasts;
    for (std::size_t t = 0; t < kNumMessageTags; ++t) by_tag[t] += o.by_tag[t];
    rounds += o.rounds;
    messages_lost += o.messages_lost;
    stale_reads += o.stale_reads;
    recovery_rounds += o.recovery_rounds;
    window_expirations += o.window_expirations;
    net += o.net;
    return *this;
  }

  friend bool operator==(const StatsSnapshot&, const StatsSnapshot&) = default;
};

/// Registry ids of the snapshot's metric namespace (comm.*, faults.*,
/// window.*, net.*) — returned by the single registration point below.
struct StatsSnapshotIds {
  telemetry::MetricId messages, node_to_server, server_to_node, broadcasts;
  std::array<telemetry::MetricId, kNumMessageTags> by_tag;
  telemetry::MetricId rounds;
  telemetry::MetricId messages_lost, stale_reads, recovery_rounds;
  telemetry::MetricId window_expirations;
  telemetry::MetricId net_frames_sent, net_frames_recv;
  telemetry::MetricId net_bytes_sent, net_bytes_recv;
  telemetry::MetricId net_send_retries, net_reconnects;
};

/// THE registration point: declares every StatsSnapshot counter in `reg`
/// (idempotent — re-registration returns the existing ids).
StatsSnapshotIds register_stats_metrics(telemetry::MetricsRegistry& reg);

/// THE publication point: mirrors `snap` into the registered ids by relaxed
/// stores (no RNG, no allocation — results stay bit-identical).
void publish_stats(telemetry::MetricsRegistry& reg, const StatsSnapshotIds& ids,
                   const StatsSnapshot& snap);

/// The net.* block of publish_stats alone — for drivers (the networked
/// coordinator) that refresh transport counters between full publishes.
void publish_net_stats(telemetry::MetricsRegistry& reg, const StatsSnapshotIds& ids,
                       const NetChannelStats& net);

}  // namespace topkmon
