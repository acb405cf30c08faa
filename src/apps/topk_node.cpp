// topk_node — the node-host binary of the networked runtime.
//
//   $ topk_node --connect 127.0.0.1:7421 --host-index 0 --hosts 2
//
// One node-host owns a contiguous shard of the fleet's data plane. It needs
// ZERO workload flags: the coordinator ships the full RunSpec (stream,
// protocol, window, fault model, seeds) in the Config handshake, so the only
// configuration here is where the coordinator is and which host this is.
// The process connects (retrying while the coordinator is still starting),
// runs the lockstep until Shutdown, prints its report — the coordinator's
// final aggregate statistics plus this link's own transport counters — and
// exits 0 on a clean run.
// Flag parsing, --help and the --markdown/--csv/--json/--telemetry output
// semantics are shared with the other binaries via apps/options.hpp.
#include <chrono>
#include <iostream>
#include <thread>

#include "apps/options.hpp"
#include "net/node_host.hpp"
#include "net/transport.hpp"
#include "sim/stats_snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

using namespace topkmon;

int main(int argc, char** argv) {
  std::string connect = "127.0.0.1";
  std::uint64_t host_index = 0;
  std::uint64_t hosts = 1;
  std::uint64_t connect_retries = 100;
  OutputOptions out;

  Options opts("topk_node", "networked-runtime node-host (data plane)");
  opts.add_string("connect", &connect, "coordinator address, HOST or HOST:PORT");
  opts.note("port", "coordinator port (alternative to HOST:PORT)");
  opts.add_uint("host-index", &host_index, "this host's index in [0, hosts)");
  opts.add_uint("hosts", &hosts, "total number of node-hosts");
  opts.add_uint("connect-retries", &connect_retries,
                "connection attempts, 50ms apart, while the coordinator starts");
  add_output_options(opts, out);

  switch (opts.parse(argc, argv)) {
    case Options::ParseResult::kHelp: return 0;
    case Options::ParseResult::kError: return 1;
    case Options::ParseResult::kOk: break;
  }

  // A port in --connect HOST:PORT wins over --port; either must be a whole
  // number in 1..65535, checked before any connection attempt.
  std::uint16_t port = 0;
  try {
    if (opts.flags().has("port")) {
      port = parse_port("port", opts.flags().get_string("port", ""), 1);
    }
    const auto colon = connect.rfind(':');
    if (colon != std::string::npos) {
      port = parse_port("connect", connect.substr(colon + 1), 1);
      connect.resize(colon);
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (port == 0) {
    std::cerr << "error: no coordinator port (use --connect HOST:PORT or --port)\n";
    return 1;
  }
  if (hosts == 0 || host_index >= hosts) {
    std::cerr << "error: --host-index must lie in [0, --hosts)\n";
    return 1;
  }

  std::unique_ptr<net::Transport> transport;
  for (std::uint64_t attempt = 0; !transport && attempt <= connect_retries;
       ++attempt) {
    transport = net::tcp_connect(connect, port);
    if (!transport) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!transport) {
    std::cerr << "error: cannot connect to " << connect << ":" << port << "\n";
    return 1;
  }

  net::NodeHost node(std::make_unique<net::Link>(std::move(transport)),
                     static_cast<std::uint32_t>(host_index),
                     static_cast<std::uint32_t>(hosts));
  const int status = node.run();
  if (status != 0) {
    std::cerr << "error: " << node.error() << "\n";
    return status;
  }

  const NetChannelStats& link = node.link_stats();
  Table t("topk_node — host " + std::to_string(host_index) + "/" +
          std::to_string(hosts) + " (coordinator " + connect + ":" +
          std::to_string(port) + ")");
  t.header({"metric", "value"});
  t.add_row({"run messages (total)", format_count(node.final_stats().messages)});
  t.add_row({"run recovery rounds",
             format_count(node.final_stats().recovery_rounds)});
  t.add_row({"link frames sent", format_count(link.frames_sent)});
  t.add_row({"link frames recv", format_count(link.frames_recv)});
  t.add_row({"link bytes sent", format_count(link.bytes_sent)});
  t.add_row({"link bytes recv", format_count(link.bytes_recv)});
  t.add_row({"link send retries", format_count(link.send_retries)});
  t.add_row({"link reconnects", format_count(link.reconnects)});
  t.add_row({"quiescence errors", format_count(node.quiescence_errors())});
  print_table(t, out);

  if (!out.telemetry_json.empty() || !out.telemetry_prom.empty()) {
    // The node's telemetry view: the run-wide model counters the coordinator
    // reported at shutdown, with net.* swapped for this link's own counters.
    telemetry::TelemetrySink sink;
    const StatsSnapshotIds ids = register_stats_metrics(sink.registry());
    StatsSnapshot snap = node.final_stats();
    snap.net = link;
    publish_stats(sink.registry(), ids, snap);
    if (!out.telemetry_json.empty() &&
        telemetry::write_text_file(out.telemetry_json,
                                   telemetry::to_json(sink, "topk_node"))) {
      std::cout << "wrote telemetry JSON (" << telemetry::kTelemetrySchema
                << ") to " << out.telemetry_json << "\n";
    }
    if (!out.telemetry_prom.empty() &&
        telemetry::write_text_file(out.telemetry_prom,
                                   telemetry::to_prometheus(sink, "topk_node"))) {
      std::cout << "wrote Prometheus exposition to " << out.telemetry_prom << "\n";
    }
  }
  return node.quiescence_errors() == 0 ? 0 : 1;
}
