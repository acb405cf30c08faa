// E10 — google-benchmark micro suite: simulator throughput and the CPU
// cost of the protocol primitives. These are engineering numbers (steps/s),
// not paper claims; message counts are attached as counters so regressions
// in *communication* are also visible here.
//
// The BM_HotPath* family measures the batched hot path on the shared grid
// of bench/hotpath_workload.hpp — n ∈ {64, 1k, 16k} × {instantaneous,
// W=256} × {fault-free, churn} — reporting steps/s (items_per_second) and
// allocs/step (counting allocator hook; 0 when the hook is compiled out).
// bench_e13_hotpath emits the same cells as a table/JSON for the CI gate.
#include <benchmark/benchmark.h>

#include "hotpath_workload.hpp"
#include "offline/opt.hpp"
#include "protocols/existence.hpp"
#include "protocols/registry.hpp"
#include "protocols/sampling.hpp"
#include "sim/simulator.hpp"
#include "streams/registry.hpp"
#include "util/alloc_counter.hpp"
#include "util/simd.hpp"

namespace topkmon {
namespace {

void BM_ExistenceProtocol(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<bool> bits(n, false);
  for (std::size_t i = 0; i < n / 4 + 1; ++i) bits[i] = true;
  Rng rng(42);
  std::uint64_t messages = 0;
  for (auto _ : state) {
    const auto res = ExistenceProtocol::run(bits, rng);
    messages += res.messages;
    benchmark::DoNotOptimize(res.any);
  }
  state.counters["msgs/op"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExistenceProtocol)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SampleMax(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(43);
  std::vector<Value> values(n);
  for (auto& v : values) v = rng.next_u64() >> 16;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    const auto out = sample_max_standalone(values, rng);
    messages += out.messages;
    benchmark::DoNotOptimize(out.id);
  }
  state.counters["msgs/op"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SampleMax)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SimulatorStep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  StreamSpec spec;
  spec.kind = "random_walk";
  spec.n = n;
  spec.k = 4;
  spec.delta = 1 << 16;
  SimConfig cfg;
  cfg.k = 4;
  cfg.epsilon = 0.15;
  cfg.seed = 44;
  Simulator sim(cfg, make_stream(spec), make_protocol("combined"));
  for (auto _ : state) {
    sim.step();
  }
  state.counters["msgs/step"] = benchmark::Counter(
      static_cast<double>(sim.result().messages), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorStep)->Arg(16)->Arg(128)->Arg(1024);

void BM_DenseChurnStep(benchmark::State& state) {
  StreamSpec spec;
  spec.kind = "oscillating";
  spec.n = static_cast<std::size_t>(state.range(0));
  spec.k = 4;
  spec.sigma = spec.n / 2;
  spec.epsilon = 0.15;
  SimConfig cfg;
  cfg.k = 4;
  cfg.epsilon = 0.15;
  cfg.seed = 45;
  Simulator sim(cfg, make_stream(spec), make_protocol("combined"));
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DenseChurnStep)->Arg(16)->Arg(64)->Arg(256);

// The batched hot path over the shared workload grid. Quiescent stepping —
// the common case the paper's protocols are designed to make free — must be
// O(#changed) with zero steady-state allocations; churn variants show the
// deterministic recovery cost on top. Args: n, W (0 = instantaneous),
// churn (0/1).
void BM_HotPathStep(benchmark::State& state) {
  bench::HotPathCell cell;
  cell.n = static_cast<std::size_t>(state.range(0));
  cell.window = static_cast<std::size_t>(state.range(1));
  cell.churn = state.range(2) != 0;
  // Churn events are scripted over this horizon; steps beyond it simply see
  // no further membership changes (the schedule answers online() fine).
  auto run = bench::make_hotpath_run(cell, /*seed=*/42, /*horizon=*/1 << 20);
  for (int i = 0; i < 64; ++i) {
    run.sim->step_with(run.values);  // warm buffers past the start round
  }
  const std::uint64_t allocs_before = thread_alloc_count();
  const std::uint64_t msgs_before = run.sim->result().messages;
  for (auto _ : state) {
    run.sim->step_with(run.values);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs/step"] = benchmark::Counter(
      static_cast<double>(thread_alloc_count() - allocs_before),
      benchmark::Counter::kAvgIterations);
  // Delta past the warmup phase, like allocs/step — the start-round burst
  // must not smear into the steady-state per-step figure.
  state.counters["msgs/step"] = benchmark::Counter(
      static_cast<double>(run.sim->result().messages - msgs_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(bench::hotpath_workload_name(cell) +
                 (alloc_counting_active() ? "" : " [alloc hook off]"));
}
BENCHMARK(BM_HotPathStep)
    ->ArgsProduct({{64, 1024, 16384}, {0, 256}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// The churn path over the shared churn cell grid (bench_e14_churn's twin):
// dense value churn, scattered large-displacement updates, and adversarial
// oscillation. The vectorized step kernel — diff scan, scan-mode σ, value
// radix rebuilds, violation sweep — is what keeps these steps
// bandwidth-bound. Args: n, kind (0 = churn, 1 = sparse, 2 = osc).
void BM_ChurnPathStep(benchmark::State& state) {
  bench::ChurnCell cell;
  cell.n = static_cast<std::size_t>(state.range(0));
  cell.kind = static_cast<bench::ChurnKind>(state.range(1));
  auto run = bench::make_churn_run(cell, /*seed=*/42);
  TimeStep t = 0;
  for (; t < 64; ++t) {
    run.sim->step_with(run.vector_for(t));  // warm past the start round
  }
  const std::uint64_t msgs_before = run.sim->result().messages;
  for (auto _ : state) {
    run.sim->step_with(run.vector_for(t++));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["msgs/step"] = benchmark::Counter(
      static_cast<double>(run.sim->result().messages - msgs_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(bench::churn_workload_name(cell) + "/simd=" + simd::active_isa());
}
BENCHMARK(BM_ChurnPathStep)
    ->ArgsProduct({{1024, 16384}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

void BM_OfflineOptApprox(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(46);
  std::vector<ValueVector> history;
  ValueVector v(n);
  for (auto& x : v) x = 1000 + rng.below(1000);
  for (int t = 0; t < 256; ++t) {
    for (auto& x : v) {
      const auto step = rng.below(32);
      x = (rng.bernoulli(0.5) && x > step) ? x - step : x + step;
    }
    history.push_back(v);
  }
  for (auto _ : state) {
    const auto r = OfflineOpt::approx(history, 4, 0.15);
    benchmark::DoNotOptimize(r.phases);
  }
}
BENCHMARK(BM_OfflineOptApprox)->Arg(16)->Arg(128)->Arg(512);

}  // namespace
}  // namespace topkmon
