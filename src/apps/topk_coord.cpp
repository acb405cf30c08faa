// topk_coord — the coordinator binary of the networked runtime.
//
//   in-process (default):
//     $ topk_coord --hosts 4 --stream oscillating --n 32 --k 4 --steps 2000
//   real sockets:
//     $ topk_coord --listen 7421 --hosts 2 &
//     $ topk_node --connect 127.0.0.1:7421 --host-index 0 --hosts 2 &
//     $ topk_node --connect 127.0.0.1:7421 --host-index 1 --hosts 2
//
// The coordinator is the single configuration source of a networked run: it
// takes the full workload surface (same flags as topk_sim), ships the
// RunSpec to every node-host in the Config handshake, drives the per-step
// lockstep, and runs the *unmodified* monitoring protocol on the assembled
// observation vectors — so its model-level report is bit-identical to the
// in-process Simulator on a loss-free schedule, plus the transport counters
// (net.*) of the real message passing underneath.
//
// `--listen PORT` (0 = ephemeral; the bound port is printed as
// "listening on HOST:PORT") accepts `--hosts` TCP node-host connections.
// Without it the run is in-process: node-hosts run as threads over loopback
// links — same frames, zero sockets.
// `--link-loss P` drops wire frames with probability P (accounting-only
// retransmission, booked as net.send_retries); negative (default) inherits
// the fault model's --loss, so wire frames drop as often as model messages.
// Flag parsing, --help and the --markdown/--csv/--json/--telemetry output
// semantics are shared with the other binaries via apps/options.hpp.
#include <iostream>
#include <memory>
#include <vector>

#include "apps/options.hpp"
#include "faults/registry.hpp"
#include "net/coordinator.hpp"
#include "net/transport.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

using namespace topkmon;

namespace {

void report(const RunResult& run, const net::RunSpec& spec,
            std::uint64_t quiescence_errors, const OutputSet& output,
            const net::QueryAnswers& answers, std::uint32_t hosts,
            const std::string& mode, const OutputOptions& out) {
  Table t("topk_coord — " + spec.protocol + " on " + spec.stream.kind + " (n=" +
          std::to_string(spec.stream.n) + ", k=" + std::to_string(spec.stream.k) +
          ", hosts=" + std::to_string(hosts) + ", steps=" +
          std::to_string(spec.steps) + ", seed=" + std::to_string(spec.seed) +
          ", " + mode + ")");
  t.header({"metric", "value"});
  t.add_row({"messages (total)", format_count(run.messages)});
  t.add_row({"messages / step", format_double(run.messages_per_step, 3)});
  t.add_row({"node->server", format_count(run.node_to_server)});
  t.add_row({"server->node", format_count(run.server_to_node)});
  t.add_row({"broadcasts", format_count(run.broadcasts)});
  t.add_row({"max rounds / step", format_count(run.max_rounds_per_step)});
  if (spec.window != kInfiniteWindow) {
    t.add_row({"window W (steps)", format_count(spec.window)});
    t.add_row({"window expirations", format_count(run.window_expirations)});
  }
  t.add_row({"messages lost (links)", format_count(run.messages_lost)});
  t.add_row({"stale reads (fleet)", format_count(run.stale_reads)});
  t.add_row({"recovery rounds", format_count(run.recovery_rounds)});
  t.add_row({"net frames sent", format_count(run.net.frames_sent)});
  t.add_row({"net frames recv", format_count(run.net.frames_recv)});
  t.add_row({"net bytes sent", format_count(run.net.bytes_sent)});
  t.add_row({"net bytes recv", format_count(run.net.bytes_recv)});
  t.add_row({"net send retries", format_count(run.net.send_retries)});
  t.add_row({"net reconnects", format_count(run.net.reconnects)});
  t.add_row({"quiescence errors", format_count(quiescence_errors)});

  std::string out_str = "{";
  for (std::size_t i = 0; i < output.size(); ++i) {
    out_str += std::to_string(output[i]) + (i + 1 < output.size() ? ", " : "");
  }
  t.add_row({"final output F(T)", out_str + "}"});
  if (!answers.kselect_estimates.empty()) {
    t.add_row({"k-select estimate (j=k)",
               format_count(answers.kselect_estimates.back())});
  }
  if (answers.distinct_count) {
    t.add_row({"distinct bands (final)", format_count(*answers.distinct_count)});
  }
  if (const std::optional<std::uint64_t>& above = answers.threshold_above) {
    t.add_row({"threshold alert (T=" + format_count(spec.threshold) + ")",
               std::string(*above > 0 ? "ALERT" : "quiet") + " (" +
                   format_count(*above) + " above)"});
  }
  print_table(t, out);
}

}  // namespace

int main(int argc, char** argv) {
  net::RunSpec spec;
  spec.stream.kind = "random_walk";
  spec.stream.n = 16;
  spec.stream.k = 3;
  spec.stream.delta = 1 << 20;
  spec.stream.walk_step = 64;

  std::uint64_t hosts = 2;
  std::string bind_addr = "127.0.0.1";
  double link_loss = -1.0;
  std::uint64_t steps_flag = 1000;
  OutputOptions out;

  Options opts("topk_coord", "networked-runtime coordinator (control plane)");
  add_stream_options(opts, spec.stream);
  opts.add_string("protocol", &spec.protocol, "monitoring protocol to run");
  opts.note("protocol-eps", "protocol's ε when it should differ from the stream's",
            "=eps");
  opts.note("query",
            "query spec KIND[:k=..,eps=..,window=..,bound=..,proto=..]; "
            "overrides --protocol/--k/--window (kinds per --list queries)");
  opts.add_uint("seed", &spec.seed, "simulation seed");
  opts.add_size("window", &spec.window,
                "sliding window W in steps (0 = instantaneous)");
  opts.add_uint("steps", &steps_flag, "run length in time steps");
  opts.add_uint("hosts", &hosts, "number of node-hosts (shards)");
  opts.note("listen", "accept node-hosts on this TCP port (0 = ephemeral); "
                      "without it node-hosts run in-process");
  opts.add_string("bind", &bind_addr, "listen address for --listen");
  opts.add_double("link-loss", &link_loss,
                  "wire-frame drop probability (negative = inherit --loss)");
  add_fault_options(opts);
  add_output_options(opts, out);

  switch (opts.parse(argc, argv)) {
    case Options::ParseResult::kHelp: return 0;
    case Options::ParseResult::kError: return 1;
    case Options::ParseResult::kOk: break;
  }
  finalize_stream_options(opts, spec.stream, 2);
  spec.steps = static_cast<TimeStep>(steps_flag);

  try {
    spec.protocol_epsilon =
        opts.flags().get_double("protocol-eps", spec.stream.epsilon);
    // One --query spec overrides the flat protocol/k/ε/window/bound flags —
    // the declarative syntax shared with topk_sim/topk_engine. The RunSpec
    // carries everything to the node-hosts, threshold included.
    if (const std::optional<QuerySpec> q = single_query_option(opts.flags())) {
      spec.protocol = q->protocol;
      spec.stream.k = q->k;
      spec.protocol_epsilon = q->epsilon;
      spec.window = q->window;
      spec.threshold = q->threshold;
      if (q->seed) spec.seed = *q->seed;
    }
    spec.faults = fault_config_from_flags(opts.flags(), spec.steps);
    const std::string err = net::validate_run_spec(spec);
    if (!err.empty()) {
      std::cerr << "error: " << err << "\n";
      return 1;
    }
    if (hosts == 0 || hosts > spec.stream.n) {
      std::cerr << "error: --hosts must satisfy 1 <= hosts <= n\n";
      return 1;
    }

    telemetry::TelemetrySink sink;
    const bool want_telemetry =
        !out.telemetry_json.empty() || !out.telemetry_prom.empty();

    RunResult run;
    OutputSet output;
    net::QueryAnswers answers;
    std::uint64_t quiescence_errors = 0;
    std::string mode;

    if (opts.flags().has("listen")) {
      mode = "tcp";
      const std::uint16_t listen_port =
          parse_port("listen", opts.flags().get_string("listen", ""), 0);
      net::TcpListener listener;
      if (!listener.listen(listen_port, bind_addr)) {
        std::cerr << "error: cannot listen on " << bind_addr << ":" << listen_port
                  << "\n";
        return 1;
      }
      std::cout << "listening on " << bind_addr << ":" << listener.port()
                << " for " << hosts << " node-host(s)\n"
                << std::flush;
      const double loss = link_loss >= 0.0 ? link_loss : spec.faults.loss;
      std::vector<std::unique_ptr<net::Link>> links;
      for (std::uint64_t i = 0; i < hosts; ++i) {
        auto transport = listener.accept();
        if (!transport) {
          std::cerr << "error: accept failed after " << i << " connection(s)\n";
          return 1;
        }
        auto link = std::make_unique<net::Link>(std::move(transport));
        if (loss > 0.0) {
          link->set_loss(loss, net::coordinator_link_loss_rng(
                                   spec, static_cast<std::uint32_t>(i)));
        }
        links.push_back(std::move(link));
      }
      net::NetCoordinator coord(spec, std::move(links));
      if (want_telemetry) coord.attach_telemetry(&sink);
      run = coord.run();
      output = coord.output();
      quiescence_errors = coord.quiescence_errors();
      answers = coord.answers();
    } else {
      mode = "inproc";
      net::InprocNetOptions net_opts;
      net_opts.hosts = static_cast<std::uint32_t>(hosts);
      net_opts.link_loss = link_loss;
      if (want_telemetry) net_opts.sink = &sink;
      net::InprocNetReport rep = net::run_networked_inproc(spec, net_opts);
      for (std::uint32_t h = 0; h < rep.host_exit.size(); ++h) {
        if (rep.host_exit[h] != 0) {
          std::cerr << "error: node-host " << h << " exited with status "
                    << rep.host_exit[h] << "\n";
          return 1;
        }
      }
      run = rep.run;
      output = rep.output;
      answers = rep;
      quiescence_errors = rep.quiescence_errors;
    }

    report(run, spec, quiescence_errors, output, answers,
           static_cast<std::uint32_t>(hosts), mode, out);

    if (!out.telemetry_json.empty() &&
        telemetry::write_text_file(out.telemetry_json,
                                   telemetry::to_json(sink, "topk_coord"))) {
      std::cout << "wrote telemetry JSON (" << telemetry::kTelemetrySchema
                << ") to " << out.telemetry_json << "\n";
    }
    if (!out.telemetry_prom.empty() &&
        telemetry::write_text_file(out.telemetry_prom,
                                   telemetry::to_prometheus(sink, "topk_coord"))) {
      std::cout << "wrote Prometheus exposition to " << out.telemetry_prom << "\n";
    }
    if (quiescence_errors != 0) {
      std::cerr << "error: " << quiescence_errors << " quiescence error(s)\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
