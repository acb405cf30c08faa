#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "protocols/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace topkmon {

MonitoringEngine::MonitoringEngine(EngineConfig cfg,
                                   std::unique_ptr<StreamGenerator> gen)
    : cfg_(cfg),
      // Seeded like a Simulator's pipeline, so a Q = 1 engine replays the
      // identical stream. Windows are per query: StepSnapshot views.
      pipeline_(std::move(gen), cfg.seed, cfg.faults, kInfiniteWindow) {
  probe_for(kInfiniteWindow);  // always present, pre-window seeding
}

SharedProbe& MonitoringEngine::probe_for(std::size_t window) {
  for (WindowProbe& wp : probes_) {
    if (wp.window == window) return *wp.probe;
  }
  TOPKMON_ASSERT_MSG(!started_, "probe channels are fixed once the engine started");
  // The unwindowed channel keeps the historical seeding; windowed channels
  // derive theirs from (engine seed, W) so distinct windows get independent
  // sampling randomness while staying reproducible. The 0x57EB domain salt
  // keeps probe seeds disjoint from the per-query sim seeds
  // splitmix_combine(cfg_.seed, handle) — a handle numerically equal to a
  // window length must not yield correlated RNG streams.
  const std::uint64_t probe_seed =
      window == kInfiniteWindow
          ? cfg_.seed
          : splitmix_combine(splitmix_combine(cfg_.seed, 0x57EB), window);
  probes_.push_back({window, std::make_unique<SharedProbe>(probe_seed)});
  SharedProbe& probe = *probes_.back().probe;
  if (cfg_.faults) {
    probe.enable_loss(cfg_.faults->loss(),
                      Rng::derive(probe_seed, /*stream_id=*/0x1055));
  }
  return probe;
}

MonitoringEngine::~MonitoringEngine() = default;

QueryHandle MonitoringEngine::add_query(QuerySpec spec) {
  TOPKMON_ASSERT_MSG(!started_, "add_query after the engine started");
  const auto handle = static_cast<QueryHandle>(specs_.size());
  if (spec.protocol.empty()) {
    spec.protocol = default_protocol_for(spec.kind);
  }
  if (spec.label.empty()) {
    spec.label = describe(spec);
  }
  SimConfig sim_cfg;
  sim_cfg.k = spec.k;
  sim_cfg.epsilon = spec.epsilon;
  sim_cfg.seed = spec.seed ? *spec.seed : splitmix_combine(cfg_.seed, handle);
  sim_cfg.strict = spec.strict;
  sim_cfg.threshold = spec.threshold;
  sim_cfg.window = spec.window;
  sim_cfg.faults = cfg_.faults;
  auto protocol = make_protocol(spec.protocol);
  // The protocol must actually answer the question the spec asks.
  const bool kind_ok = spec.kind == QueryKind::kTopK
                           ? serves_topk(*protocol)
                           : capability_for(*protocol, spec.kind) != nullptr;
  if (!kind_ok) {
    throw std::runtime_error("protocol '" + spec.protocol + "' does not serve " +
                             std::string(to_string(spec.kind)) + " queries");
  }
  // Driven through step_on() by its shard: the engine's pipeline and the
  // snapshot's per-window views do the node side once for all queries.
  auto sim = std::make_unique<Simulator>(sim_cfg, n(), std::move(protocol));
  step_snapshot_.add_window(spec.window, n());
  if (cfg_.share_probes) {
    sim->context().set_probe_sharer(&probe_for(spec.window));
  }
  pending_.push_back(std::move(sim));
  specs_.push_back(std::move(spec));
  return handle;
}

void MonitoringEngine::ensure_started() {
  if (started_) return;
  TOPKMON_ASSERT_MSG(!specs_.empty(), "engine needs at least one query");

  std::size_t threads = cfg_.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t shard_count = std::min(specs_.size(), threads);

  shards_.resize(shard_count);
  locate_.resize(specs_.size());
  for (std::size_t q = 0; q < pending_.size(); ++q) {
    const std::size_t s = q % shard_count;
    locate_[q] = {s, shards_[s].size()};
    shards_[s].add(static_cast<QueryHandle>(q), specs_[q].window,
                   std::move(pending_[q]));
  }
  pending_.clear();

  if (shard_count > 1) {
    // One worker per shard: every woken worker has a shard to advance.
    pool_ = std::make_unique<ThreadPool>(shard_count);
  }
  if (telemetry_ != nullptr) {
    // One single-writer profiler per shard; export merges them with the
    // engine-loop profiler (TelemetrySink::merged_profiler).
    telemetry_->resize_shard_profilers(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      shards_[s].set_profiler(&telemetry_->shard_profiler(s));
    }
  }
  started_ = true;
}

void MonitoringEngine::attach_telemetry(telemetry::TelemetrySink* sink) {
  TOPKMON_ASSERT(sink != nullptr);
  TOPKMON_ASSERT_MSG(!started_ && next_t_ == 0,
                     "telemetry must attach before the first step");
  telemetry_ = sink;
  profiler_ = &sink->profiler();

  telemetry::MetricsRegistry& reg = sink->registry();
  ids_.stats = register_stats_metrics(reg);
  ids_.step = reg.gauge("engine.step");
  ids_.queries = reg.gauge("engine.queries");
  ids_.query_messages = reg.counter("engine.query_messages");
  ids_.shared_probe_messages = reg.counter("engine.shared_probe_messages");
  ids_.total_messages = reg.counter("engine.total_messages");
  ids_.probe_calls = reg.counter("engine.probe_calls");
  ids_.probe_ranks_computed = reg.counter("engine.probe_ranks_computed");

  if (sink->timeseries().channel_count() == 0) {
    sink->timeseries().add_channel("engine.total_messages", ids_.total_messages,
                                   reg);
    sink->timeseries().add_channel("engine.shared_probe_messages",
                                   ids_.shared_probe_messages, reg);
    sink->timeseries().add_channel("window.expirations",
                                   ids_.stats.window_expirations, reg);
  }
}

EngineStats MonitoringEngine::aggregate() const {
  // Each query's CommStats and each probe channel are summed exactly once;
  // stale reads and window expirations are fleet-level, booked once by the
  // pipeline and the snapshot rather than per query. `queries` stays empty,
  // so the per-step publish allocates nothing.
  EngineStats s;
  s.steps = static_cast<std::uint64_t>(next_t_);
  for (std::size_t q = 0; q < specs_.size(); ++q) {
    const CommStats& c = query_sim(static_cast<QueryHandle>(q)).context().stats();
    s.query_messages += c.total();
    s += StatsSnapshot::from(c);
  }
  for (const WindowProbe& wp : probes_) {
    const CommStats& c = wp.probe->stats();
    s.shared_probe_messages += c.total();
    s += StatsSnapshot::from(c);
    s.probe_calls += wp.probe->calls();
    s.probe_ranks_computed += wp.probe->ranks_computed();
  }
  s.stale_reads = pipeline_.total_stale_reads();
  s.window_expirations = step_snapshot_.window_expirations();
  return s;
}

void MonitoringEngine::publish_telemetry() {
  telemetry::MetricsRegistry& reg = telemetry_->registry();
  const EngineStats s = aggregate();
  publish_stats(reg, ids_.stats, s);
  reg.set(ids_.step, s.steps);
  reg.set(ids_.queries, specs_.size());
  reg.set(ids_.query_messages, s.query_messages);
  reg.set(ids_.shared_probe_messages, s.shared_probe_messages);
  reg.set(ids_.total_messages, s.messages);
  reg.set(ids_.probe_calls, s.probe_calls);
  reg.set(ids_.probe_ranks_computed, s.probe_ranks_computed);
  telemetry_->timeseries().sample(reg, s.steps);
}

void MonitoringEngine::step() {
  ensure_started();

  // (1) One snapshot per step, shared by all queries: generated and
  // fault-injected once by the pipeline. The adaptive-adversary view is
  // query 0's state (see header).
  const Simulator& ref = query_sim(0);
  const AdversaryView view{ref.context().nodes(), &ref.protocol().output(),
                           ref.config().k, ref.config().epsilon};
  const ValueVector& eff = pipeline_.step(next_t_, view, profiler_);

  // (2) Arm the per-step caches — the snapshot advances every windowed view
  // exactly once, and each probe channel points at its window's vector —
  // then advance all shards.
  {
    TOPKMON_PHASE_SCOPE(profiler_, telemetry::Phase::kSnapshotBegin);
    step_snapshot_.begin_step(next_t_, eff);
    if (cfg_.share_probes) {
      for (WindowProbe& wp : probes_) {
        wp.probe->begin_step(&step_snapshot_.values(wp.window));
      }
    }
  }
  if (pool_) {
    parallel_for(*pool_, shards_.size(),
                 [&](std::size_t s) { shards_[s].advance(step_snapshot_); });
  } else {
    for (auto& shard : shards_) {
      shard.advance(step_snapshot_);
    }
  }

  if (telemetry_ != nullptr) {
    publish_telemetry();
  }
  ++next_t_;
}

EngineStats MonitoringEngine::run(TimeStep steps) {
  const auto start = std::chrono::steady_clock::now();
  for (TimeStep i = 0; i < steps; ++i) {
    step();
  }
  elapsed_sec_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return stats();
}

EngineStats MonitoringEngine::stats() const {
  EngineStats s = aggregate();
  s.queries.reserve(specs_.size());
  for (std::size_t q = 0; q < specs_.size(); ++q) {
    const auto h = static_cast<QueryHandle>(q);
    const Simulator& sim = query_sim(h);
    s.windowed |= specs_[q].window != kInfiniteWindow;
    s.queries.push_back({h, specs_[q], sim.result(), sim.protocol().output()});
  }
  s.elapsed_sec = elapsed_sec_;
  if (elapsed_sec_ > 0.0) {
    s.steps_per_sec = static_cast<double>(s.steps) / elapsed_sec_;
    s.query_steps_per_sec =
        static_cast<double>(s.steps) * static_cast<double>(specs_.size()) /
        elapsed_sec_;
  }
  return s;
}

const Simulator& MonitoringEngine::query_sim(QueryHandle h) const {
  TOPKMON_ASSERT(h < specs_.size());
  if (!started_) {
    return *pending_[h];
  }
  const auto [shard, pos] = locate_[h];
  return shards_[shard].sim(pos);
}

const OutputSet& MonitoringEngine::output(QueryHandle h) const {
  return query_sim(h).protocol().output();
}

}  // namespace topkmon
