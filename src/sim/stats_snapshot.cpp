#include "sim/stats_snapshot.hpp"

namespace topkmon {

StatsSnapshot StatsSnapshot::from(const CommStats& s,
                                  std::uint64_t window_expirations) {
  StatsSnapshot snap;
  snap.messages = s.total();
  snap.node_to_server = s.by_kind(MessageKind::kNodeToServer);
  snap.server_to_node = s.by_kind(MessageKind::kServerToNode);
  snap.broadcasts = s.by_kind(MessageKind::kBroadcast);
  for (std::size_t t = 0; t < kNumMessageTags; ++t) {
    snap.by_tag[t] = s.by_tag(static_cast<MessageTag>(t));
  }
  snap.rounds = s.total_rounds();
  snap.messages_lost = s.messages_lost();
  snap.stale_reads = s.stale_reads();
  snap.recovery_rounds = s.recovery_rounds();
  snap.window_expirations = window_expirations;
  return snap;
}

StatsSnapshotIds register_stats_metrics(telemetry::MetricsRegistry& reg) {
  StatsSnapshotIds ids;
  ids.messages = reg.counter("comm.messages");
  ids.node_to_server = reg.counter("comm.node_to_server");
  ids.server_to_node = reg.counter("comm.server_to_node");
  ids.broadcasts = reg.counter("comm.broadcasts");
  for (std::size_t t = 0; t < kNumMessageTags; ++t) {
    ids.by_tag[t] = reg.counter("comm.tag." + to_string(static_cast<MessageTag>(t)));
  }
  ids.rounds = reg.counter("comm.rounds");
  ids.messages_lost = reg.counter("faults.messages_lost");
  ids.stale_reads = reg.counter("faults.stale_reads");
  ids.recovery_rounds = reg.counter("faults.recovery_rounds");
  ids.window_expirations = reg.counter("window.expirations");
  ids.net_frames_sent = reg.counter("net.frames_sent");
  ids.net_frames_recv = reg.counter("net.frames_recv");
  ids.net_bytes_sent = reg.counter("net.bytes_sent");
  ids.net_bytes_recv = reg.counter("net.bytes_recv");
  ids.net_send_retries = reg.counter("net.send_retries");
  ids.net_reconnects = reg.counter("net.reconnects");
  return ids;
}

void publish_stats(telemetry::MetricsRegistry& reg, const StatsSnapshotIds& ids,
                   const StatsSnapshot& snap) {
  reg.set(ids.messages, snap.messages);
  reg.set(ids.node_to_server, snap.node_to_server);
  reg.set(ids.server_to_node, snap.server_to_node);
  reg.set(ids.broadcasts, snap.broadcasts);
  for (std::size_t t = 0; t < kNumMessageTags; ++t) {
    reg.set(ids.by_tag[t], snap.by_tag[t]);
  }
  reg.set(ids.rounds, snap.rounds);
  reg.set(ids.messages_lost, snap.messages_lost);
  reg.set(ids.stale_reads, snap.stale_reads);
  reg.set(ids.recovery_rounds, snap.recovery_rounds);
  reg.set(ids.window_expirations, snap.window_expirations);
  publish_net_stats(reg, ids, snap.net);
}

void publish_net_stats(telemetry::MetricsRegistry& reg, const StatsSnapshotIds& ids,
                       const NetChannelStats& net) {
  reg.set(ids.net_frames_sent, net.frames_sent);
  reg.set(ids.net_frames_recv, net.frames_recv);
  reg.set(ids.net_bytes_sent, net.bytes_sent);
  reg.set(ids.net_bytes_recv, net.bytes_recv);
  reg.set(ids.net_send_retries, net.send_retries);
  reg.set(ids.net_reconnects, net.reconnects);
}

}  // namespace topkmon
