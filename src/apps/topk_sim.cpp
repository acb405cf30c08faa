// topk_sim — the command-line simulation driver.
//
//   $ topk_sim --protocol combined --stream oscillating --n 32 --k 4
//              --eps 0.15 --sigma 12 --steps 1000 --seed 7 [--opt exact|approx]
//              [--query KIND:k=..,eps=..,bound=..] [--window 64] [--strict]
//              [--markdown] [--csv] [--json]
//              [--dump-trace[=out.csv]]
//              [--telemetry[=telemetry.json]] [--telemetry-prom[=telemetry.prom]]
//              [--faults flaky] [--churn-rate 0.02] [--straggler-frac 0.25]
//              [--straggler-delay 8] [--loss 0.05] [--fault-seed 1]
//
// Runs one protocol on one workload, prints the communication report, the
// offline optimum on the observed history, and the competitive ratio.
// Fault flags degrade the fleet (src/faults): churn, stragglers, lossy
// links — individually or via a named preset. `--window W` switches to
// sliding-window monitoring (src/model/window.hpp): the protocol tracks
// top-k over per-node maxima of the last W steps; 0 (default) keeps the
// paper's instantaneous semantics, and the OPT/history/--dump-trace then
// operate on the windowed values the protocol actually saw.
// `--telemetry` exports the run's metrics registry, per-phase step profile
// and per-step timeseries as a versioned JSON document (src/telemetry;
// consumed by scripts/check_bench.py --telemetry); `--telemetry-prom` emits
// the Prometheus text exposition alongside.
// Flag parsing, --help and the --markdown/--csv/--json/--telemetry output
// semantics are shared with the other binaries via apps/options.hpp.
#include <iostream>

#include "apps/options.hpp"
#include "faults/registry.hpp"
#include "offline/kselect_opt.hpp"
#include "offline/opt.hpp"
#include "protocols/registry.hpp"
#include "sim/simulator.hpp"
#include "streams/registry.hpp"
#include "streams/trace_file.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

using namespace topkmon;

int main(int argc, char** argv) {
  StreamSpec spec;
  spec.kind = "random_walk";
  spec.n = 16;
  spec.k = 3;
  spec.delta = 1 << 20;
  spec.walk_step = 64;

  SimConfig cfg;
  cfg.seed = 42;
  cfg.strict = true;
  cfg.window = kInfiniteWindow;
  std::string protocol = "combined";
  std::string opt_kind = "approx";
  std::uint64_t steps_flag = 1000;
  std::string dump_trace;
  OutputOptions out;

  Options opts("topk_sim", "one protocol on one workload, vs the offline OPT");
  add_stream_options(opts, spec);
  opts.add_string("protocol", &protocol, "monitoring protocol to run");
  opts.note("protocol-eps", "protocol's ε when it should differ from the stream's",
            "=eps");
  opts.note("query",
            "query spec KIND[:k=..,eps=..,window=..,bound=..,proto=..]; "
            "overrides --protocol/--k/--window (kinds per --list queries)");
  opts.add_uint("seed", &cfg.seed, "simulation seed");
  opts.add_bool("strict", &cfg.strict, "assert ε-validity of F(t) every step");
  opts.add_size("window", &cfg.window,
                "sliding window W in steps (0 = instantaneous)");
  opts.add_uint("bound", &cfg.threshold,
                "threshold bound T for threshold-alert protocols");
  opts.add_string("opt", &opt_kind, "offline baseline: exact, approx or none");
  opts.note("opt-eps", "ε' for --opt approx", "=protocol-eps");
  opts.add_uint("steps", &steps_flag, "run length in time steps");
  opts.add_optional_path("dump-trace", &dump_trace, "trace.csv",
                         "dump the observed history as CSV");
  add_fault_options(opts);
  add_output_options(opts, out);

  switch (opts.parse(argc, argv)) {
    case Options::ParseResult::kHelp: return 0;
    case Options::ParseResult::kError: return 1;
    case Options::ParseResult::kOk: break;
  }
  finalize_stream_options(opts, spec, 2);
  cfg.k = spec.k;
  cfg.record_history = opt_kind != "none" || !dump_trace.empty();
  const TimeStep steps = static_cast<TimeStep>(steps_flag);

  try {
    cfg.epsilon = opts.flags().get_double("protocol-eps", spec.epsilon);
    // One --query spec overrides the flat protocol/k/ε/window/bound flags —
    // the declarative syntax shared with topk_engine/topk_coord.
    if (const std::optional<QuerySpec> q = single_query_option(opts.flags())) {
      protocol = q->protocol;
      cfg.k = q->k;
      spec.k = q->k;
      cfg.epsilon = q->epsilon;
      cfg.window = q->window;
      cfg.threshold = q->threshold;
      if (q->seed) cfg.seed = *q->seed;
      if (q->strict) cfg.strict = true;
    }
    cfg.faults = make_fleet_schedule(fault_config_from_flags(opts.flags(), steps),
                                     spec.n);
    Simulator sim(cfg, make_stream(spec), make_protocol(protocol));
    telemetry::TelemetrySink sink;
    if (!out.telemetry_json.empty() || !out.telemetry_prom.empty()) {
      sim.attach_telemetry(&sink);
    }
    const RunResult run = sim.run(steps);

    Table t("topk_sim — " + protocol + " on " + spec.kind + " (n=" +
            std::to_string(spec.n) + ", k=" + std::to_string(spec.k) +
            ", ε=" + format_double(cfg.epsilon, 3) + ", steps=" +
            std::to_string(steps) + ", seed=" + std::to_string(cfg.seed) + ")");
    t.header({"metric", "value"});
    t.add_row({"messages (total)", format_count(run.messages)});
    t.add_row({"messages / step", format_double(run.messages_per_step, 3)});
    t.add_row({"node->server", format_count(run.node_to_server)});
    t.add_row({"server->node", format_count(run.server_to_node)});
    t.add_row({"broadcasts", format_count(run.broadcasts)});
    t.add_row({"max rounds / step", format_count(run.max_rounds_per_step)});
    t.add_row({"max sigma observed", format_count(run.max_sigma)});
    if (cfg.window != kInfiniteWindow) {
      t.add_row({"window W (steps)", format_count(cfg.window)});
      t.add_row({"window expirations", format_count(run.window_expirations)});
    }
    if (cfg.faults) {
      t.add_row({"messages lost (links)", format_count(run.messages_lost)});
      t.add_row({"stale reads (fleet)", format_count(run.stale_reads)});
      t.add_row({"recovery rounds", format_count(run.recovery_rounds)});
    }

    if (opt_kind != "none") {
      const double opt_eps = opts.flags().get_double("opt-eps", cfg.epsilon);
      const OptReport opt = opt_kind == "exact"
                                ? OfflineOpt::exact(sim.history(), cfg.k)
                                : OfflineOpt::approx(sim.history(), cfg.k, opt_eps);
      t.add_row({"OPT kind", opt_kind + (opt_kind == "approx"
                                             ? " (ε'=" + format_double(opt_eps, 3) + ")"
                                             : "")});
      t.add_row({"OPT phases", format_count(opt.phases)});
      t.add_row({"OPT messages ((k+1)/phase)", format_count(opt.messages_constructive)});
      t.add_row({"competitive ratio (msgs/phases)",
                 format_double(static_cast<double>(run.messages) /
                                   static_cast<double>(std::max<std::uint64_t>(
                                       1, opt.phases)),
                               2)});
    }

    const auto& final_out = sim.protocol().output();
    std::string out_str = "{";
    for (std::size_t i = 0; i < final_out.size(); ++i) {
      out_str += std::to_string(final_out[i]) + (i + 1 < final_out.size() ? ", " : "");
    }
    t.add_row({"final output F(T)", out_str + "}"});

    if (const QueryCapabilities* q =
            capability_for(sim.protocol(), QueryKind::kKSelect)) {
      t.add_row({"k-select estimate (j=k)", format_count(q->kselect(cfg.k))});
      if (cfg.record_history) {
        const KSelectOptReport kopt =
            KSelectOpt::approx(sim.history(), cfg.k, cfg.epsilon);
        t.add_row({"k-select OPT phases", format_count(kopt.phases)});
      }
    }
    if (const QueryCapabilities* q =
            capability_for(sim.protocol(), QueryKind::kCountDistinct)) {
      t.add_row({"distinct bands (final)", format_count(q->distinct_count())});
    }
    if (const QueryCapabilities* q =
            capability_for(sim.protocol(), QueryKind::kThreshold)) {
      t.add_row({"threshold alert (T=" + format_count(cfg.threshold) + ")",
                 std::string(q->alert_active() ? "ALERT" : "quiet") + " (" +
                     format_count(q->above_count()) + " above)"});
    }

    print_table(t, out);
    if (!dump_trace.empty()) {
      write_trace(dump_trace, sim.history());
      std::cout << "wrote observed trace to " << dump_trace << " ("
                << sim.history().size() << " rows)\n";
    }
    if (!out.telemetry_json.empty() &&
        telemetry::write_text_file(out.telemetry_json,
                                   telemetry::to_json(sink, "topk_sim"))) {
      std::cout << "wrote telemetry JSON (" << telemetry::kTelemetrySchema
                << ") to " << out.telemetry_json << "\n";
    }
    if (!out.telemetry_prom.empty() &&
        telemetry::write_text_file(out.telemetry_prom,
                                   telemetry::to_prometheus(sink, "topk_sim"))) {
      std::cout << "wrote Prometheus exposition to " << out.telemetry_prom << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::cerr << "use --list to see registered protocols and streams\n";
    return 1;
  }
  return 0;
}
