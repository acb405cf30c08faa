// E10 — multi-query engine scaling: Q concurrent queries multiplexed over
// one node fleet vs Q one-Simulator-per-query serial runs.
//
// The engine's two levers are (a) shard parallelism across the thread pool
// and (b) cross-query work sharing (the generator runs once per step; one
// shared probe round serves every query that probes). Shapes to check:
//   * engine @ 1 thread already beats serial (generator + probe sharing);
//   * speedup grows with threads until shards < workers;
//   * per-query message counts are bit-identical across thread counts
//     (the "identical" column must read yes everywhere).
#include <chrono>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "protocols/registry.hpp"
#include "streams/registry.hpp"

using namespace topkmon;
using bench::BenchArgs;

namespace {

StreamSpec fleet_spec() {
  StreamSpec spec;
  spec.kind = "zipf_bursty";
  spec.n = 64;
  spec.k = 4;
  spec.epsilon = 0.1;
  spec.sigma = 16;
  spec.delta = 1 << 16;
  return spec;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct SerialBaseline {
  double sec = 0.0;
  std::uint64_t messages = 0;
};

/// Q independent Simulator runs, back to back — the pre-engine serving model.
SerialBaseline run_serial(std::size_t q_count, TimeStep steps, std::uint64_t seed) {
  SerialBaseline base;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t q = 0; q < q_count; ++q) {
    SimConfig cfg;
    cfg.k = 4;
    cfg.epsilon = 0.1;
    cfg.seed = splitmix_combine(seed, q);
    Simulator sim(cfg, make_stream(fleet_spec()), make_protocol("combined"));
    base.messages += sim.run(steps).messages;
  }
  base.sec = seconds_since(start);
  return base;
}

struct EngineOutcome {
  EngineStats stats;
  std::vector<std::uint64_t> per_query_messages;
};

EngineOutcome run_engine(std::size_t q_count, std::size_t threads, TimeStep steps,
                         std::uint64_t seed) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.seed = seed;
  MonitoringEngine engine(cfg, make_stream(fleet_spec()));
  for (std::size_t q = 0; q < q_count; ++q) {
    QuerySpec spec;
    spec.protocol = "combined";
    spec.k = 4;
    spec.epsilon = 0.1;
    engine.add_query(spec);
  }
  EngineOutcome out;
  out.stats = engine.run(steps);
  out.per_query_messages.reserve(q_count);
  for (const auto& q : out.stats.queries) {
    out.per_query_messages.push_back(q.run.messages);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const std::vector<std::size_t> query_counts{1, 8, 64, 256};
  const std::vector<std::size_t> thread_counts{1, 4, 8};

  Table t("E10 — engine scaling: Q concurrent queries × threads "
          "(combined on zipf_bursty, n=64, k=4, ε=0.1, " +
          std::to_string(args.steps) + " steps, seed=" + std::to_string(args.seed) +
          ")");
  t.header({"Q", "threads", "engine ms", "query-steps/s", "ns/step", "serial ms",
            "speedup", "messages", "serial messages", "shared probe msgs",
            "identical"});

  for (const std::size_t q_count : query_counts) {
    const SerialBaseline serial = run_serial(q_count, args.steps, args.seed);
    std::vector<std::uint64_t> reference;  // per-query counts @ 1 thread
    for (const std::size_t threads : thread_counts) {
      const EngineOutcome out = run_engine(q_count, threads, args.steps, args.seed);
      if (threads == thread_counts.front()) {
        reference = out.per_query_messages;
      }
      const bool identical = out.per_query_messages == reference;
      const double engine_sec = out.stats.elapsed_sec;
      const double ns_per_step = engine_sec * 1e9 /
                                 (static_cast<double>(args.steps) *
                                  static_cast<double>(q_count));
      t.add_row({std::to_string(q_count), std::to_string(threads),
                 format_double(engine_sec * 1e3, 1),
                 format_double(out.stats.query_steps_per_sec, 0),
                 format_double(ns_per_step, 0),
                 format_double(serial.sec * 1e3, 1),
                 format_double(serial.sec / std::max(engine_sec, 1e-12), 2),
                 format_count(out.stats.messages),
                 format_count(serial.messages),
                 format_count(out.stats.shared_probe_messages),
                 identical ? "yes" : "NO"});
    }
  }
  bench::emit(t, args);
  return 0;
}
