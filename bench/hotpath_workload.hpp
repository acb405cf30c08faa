// Hot-path workload grid shared by bench_micro (google-benchmark counters)
// and bench_e13_hotpath (the table/JSON twin gated by scripts/check_bench.py).
//
// Cells: n ∈ {64, 1k, 16k} × {instantaneous, W = 256} × {fault-free, churn}.
// The value stream is *quiescent*: one random vector drawn per cell, fed to
// step_with() every step. After the protocol's start round nothing violates,
// so fault-free cells measure the pure per-step engine overhead — one diff
// pass for σ(t), the SoA buffers reused in place — and the zero-allocation
// invariant must hold exactly. Churn cells keep the same constant stream but
// script membership toggles, so recovery rounds (and their allocations)
// appear at deterministic steps.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "faults/registry.hpp"
#include "protocols/registry.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace topkmon::bench {

struct HotPathCell {
  std::size_t n;
  std::size_t window;  ///< kInfiniteWindow or 256
  bool churn;
};

inline std::vector<HotPathCell> hotpath_grid() {
  std::vector<HotPathCell> grid;
  for (const std::size_t n : {std::size_t{64}, std::size_t{1024}, std::size_t{16384}}) {
    for (const std::size_t w : {kInfiniteWindow, std::size_t{256}}) {
      for (const bool churn : {false, true}) {
        grid.push_back({n, w, churn});
      }
    }
  }
  return grid;
}

struct HotPathRun {
  std::unique_ptr<Simulator> sim;
  ValueVector values;  ///< the constant observation vector fed every step
};

/// Builds the cell's simulator (combined protocol, k = 8, ε = 0.1) with the
/// fault schedule scripted over `horizon` steps.
inline HotPathRun make_hotpath_run(const HotPathCell& cell, std::uint64_t seed,
                                   TimeStep horizon) {
  HotPathRun run;
  SimConfig cfg;
  cfg.k = 8;
  cfg.epsilon = 0.1;
  cfg.seed = seed;
  cfg.window = cell.window;
  if (cell.churn) {
    FaultConfig fcfg = fault_preset("churn");
    fcfg.horizon = horizon;
    fcfg.seed = splitmix_combine(seed, 0xC0);
    cfg.faults = make_fleet_schedule(fcfg, cell.n);
  }
  run.sim = std::make_unique<Simulator>(cfg, cell.n, make_protocol("combined"));
  run.values.resize(cell.n);
  Rng rng(splitmix_combine(seed, cell.n));
  for (auto& v : run.values) {
    v = 1'000'000 + rng.below(1'000'000);
  }
  return run;
}

inline std::string hotpath_workload_name(const HotPathCell& cell) {
  std::string name = cell.window == kInfiniteWindow ? "instant" : "W=256";
  name += cell.churn ? "/churn" : "/quiet";
  return name;
}

// ---------------------------------------------------------------------------
// Churn-path cells (bench_e14_churn + BM_ChurnPathStep): the *non*-quiescent
// regimes the quiescent grid above deliberately avoids. Every cell keeps k
// constant leaders with geometrically spaced huge values (pairwise ratio 2,
// so the combined protocol settles into TOPK mode with a separator far above
// the band) and churns the remaining nodes inside a low value band that
// never crosses any filter:
//
//   * churn  — every band node redraws its value every step. The σ(t) diff
//     finds ~n changed nodes, so each step pays the shadow copy and the
//     partition scans, while the protocol stays communication-quiescent —
//     the cell isolates the local step cost under maximal value churn.
//   * sparse — one rotating residue class (n/16 nodes) redraws per cycle
//     vector, so consecutive steps differ in two classes (~n/8 nodes):
//     moderate churn scattered over the band. Every step still changes the
//     vector, so it pays the same σ(t) scan as churn on an eighth of the
//     value movement.
//   * osc    — churn plus one adversarial flapper oscillating between the
//     band and above every leader (the Theorem 5.1 shape): a filter
//     violation and an output change every step, so protocol rounds, probes
//     and filter broadcasts run on top of the dense value churn.
//
// Values are drawn once into a precomputed cycle of vectors so the measured
// loop contains no generator cost; messages stay bit-reproducible.

enum class ChurnKind { kChurn, kSparse, kOsc };

struct ChurnCell {
  std::size_t n;
  ChurnKind kind;
};

inline std::vector<ChurnCell> churn_grid() {
  return {{1024, ChurnKind::kChurn},  {16384, ChurnKind::kChurn},
          {1024, ChurnKind::kSparse}, {16384, ChurnKind::kSparse},
          {1024, ChurnKind::kOsc}};
}

struct ChurnRun {
  std::unique_ptr<Simulator> sim;
  std::vector<ValueVector> cycle;  ///< precomputed vectors, fed round-robin

  const ValueVector& vector_for(TimeStep t) const {
    return cycle[static_cast<std::size_t>(t) % cycle.size()];
  }
};

inline ChurnRun make_churn_run(const ChurnCell& cell, std::uint64_t seed) {
  constexpr std::size_t kCycleLen = 32;
  constexpr std::size_t kK = 8;
  constexpr Value kBandLo = Value{1} << 20;   // churning band: [2^20, 2^21)
  constexpr Value kSpike = Value{1} << 44;    // flapper peak, above every leader

  ChurnRun run;
  SimConfig cfg;
  cfg.k = kK;
  cfg.epsilon = 0.1;
  cfg.seed = seed;
  run.sim = std::make_unique<Simulator>(cfg, cell.n, make_protocol("combined"));

  Rng rng(splitmix_combine(seed, cell.n ^ 0xE14));
  ValueVector base(cell.n);
  for (std::size_t i = 0; i < cell.n; ++i) {
    // Leaders: 2^40, 2^39, ... 2^33 — every adjacent ratio is 2, so the k-th
    // and (k+1)-st values stay clearly separated even while the osc flapper
    // holds a top rank.
    base[i] = i < kK ? Value{1} << (40 - i) : kBandLo + rng.below(kBandLo);
  }
  run.cycle.assign(kCycleLen, base);
  for (std::size_t j = 0; j < kCycleLen; ++j) {
    ValueVector& vec = run.cycle[j];
    for (std::size_t i = kK; i < cell.n; ++i) {
      const bool redraw = cell.kind == ChurnKind::kSparse ? i % 16 == j % 16 : true;
      if (redraw) {
        vec[i] = kBandLo + rng.below(kBandLo);
      }
    }
    if (cell.kind == ChurnKind::kOsc && j % 2 == 1) {
      vec[kK] = kSpike;  // the flapper crosses every filter, every other step
    }
  }
  return run;
}

inline std::string churn_workload_name(const ChurnCell& cell) {
  switch (cell.kind) {
    case ChurnKind::kChurn:
      return "churn";
    case ChurnKind::kSparse:
      return "sparse";
    case ChurnKind::kOsc:
      return "osc";
  }
  return "?";
}

}  // namespace topkmon::bench
