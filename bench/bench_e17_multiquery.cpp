// E17 — multi-function engine: heterogeneous query kinds on one fleet.
//
// The api_redesign promise is that one engine serves top-k positions,
// k-select, count-distinct and threshold alerts concurrently without the
// kinds taxing each other. Shapes to check:
//   * mixed-kind Q×threads scaling mirrors the homogeneous E10 curves —
//     per-query message counts stay bit-identical across thread counts
//     (the "identical" column must read yes everywhere);
//   * the shared probe keeps batching: only the top-k/k-select queries
//     probe, and adding the violation-only kinds (distinct/threshold) does
//     not move "shared probe msgs" per probing query;
//   * per-kind message economics: the two new kinds are violation-drain
//     protocols (one broadcast at start, then accounted reports only), so
//     their per-query message totals sit far below the position monitors'.
// "messages"/"shared probe msgs"/"identical"/"broadcasts" are deterministic
// in the seed and gated exactly against bench/bench_baseline.json by
// scripts/check_bench.py.
#include <chrono>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "streams/registry.hpp"

using namespace topkmon;
using bench::BenchArgs;

namespace {

constexpr Value kBound = 1 << 14;  // mid-range for the zipf_bursty fleet

StreamSpec fleet_spec() {
  StreamSpec spec;
  spec.kind = "zipf_bursty";
  spec.n = 48;
  spec.k = 4;
  spec.epsilon = 0.1;
  spec.sigma = 12;
  spec.delta = 1 << 16;
  return spec;
}

/// Q queries cycling through all four kinds on their default protocols.
void add_mixed_queries(MonitoringEngine& engine, std::size_t q_count) {
  for (std::size_t q = 0; q < q_count; ++q) {
    QuerySpec spec;
    spec.kind = static_cast<QueryKind>(q % kNumQueryKinds);
    spec.k = 4;
    spec.epsilon = 0.1;
    spec.threshold = kBound;
    engine.add_query(spec);
  }
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
  add_mixed_queries(engine, q_count);
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
  const std::vector<std::size_t> query_counts{4, 16, 64};
  const std::vector<std::size_t> thread_counts{1, 4, 8};

  Table t("E17 — multi-function engine: mixed-kind queries × threads "
          "(4 kinds cycling on zipf_bursty, n=48, k=4, ε=0.1, T=" +
          std::to_string(kBound) + ", " + std::to_string(args.steps) +
          " steps, seed=" + std::to_string(args.seed) + ")");
  t.header({"Q", "threads", "engine ms", "query-steps/s", "ns/step", "messages",
            "shared probe msgs", "identical"});

  for (const std::size_t q_count : query_counts) {
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
                 format_count(out.stats.messages),
                 format_count(out.stats.shared_probe_messages),
                 identical ? "yes" : "NO"});
    }
  }
  bench::emit(t, args);

  // Per-kind message economics at one mixed working point: the per-query
  // RunResults already carry the split, summed here by QueryStats::kind.
  const EngineOutcome mixed = run_engine(16, 4, args.steps, args.seed);
  Table k("E17 — per-kind message economics (Q=16, threads=4, zipf_bursty, "
          "n=48, k=4, ε=0.1, T=" + std::to_string(kBound) + ", " +
          std::to_string(args.steps) + " steps, seed=" +
          std::to_string(args.seed) + ")");
  k.header({"kind", "queries", "messages", "broadcasts", "msgs/step"});
  for (std::size_t kind = 0; kind < kNumQueryKinds; ++kind) {
    std::uint64_t queries = 0, messages = 0, broadcasts = 0;
    double msgs_per_step = 0.0;
    for (const QueryStats& q : mixed.stats.queries) {
      if (q.spec.kind != static_cast<QueryKind>(kind)) continue;
      ++queries;
      messages += q.run.messages;
      broadcasts += q.run.broadcasts;
      msgs_per_step += q.run.messages_per_step;
    }
    k.add_row({std::string(to_string(static_cast<QueryKind>(kind))),
               std::to_string(queries), std::to_string(messages),
               std::to_string(broadcasts), format_double(msgs_per_step, 2)});
  }
  bench::emit(k, args);
  return 0;
}
