#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "affinity.hpp"
#include "engine/engine.hpp"
#include "faults/registry.hpp"
#include "net/coordinator.hpp"
#include "net/node_host.hpp"
#include "protocols/registry.hpp"
#include "sim/simulator.hpp"
#include "streams/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace net = topkmon::net;
using topkmon::StatsSnapshot;
using topkmon::telemetry::Phase;

// ---------------------------------------------------------------- shapes

/// Fixed run shape per workload. `rate` sets the timed step count per second
/// of --seconds, about the sustained step rate on a 4-core x86 box, so every
/// run of one seed does the same work and its exact counters repeat.
struct Shape {
  const char* name;
  std::uint32_t warmup;  ///< set-up steps before timing starts
  double rate;           ///< timed steps per --seconds second
  /// steps_per_s is the median rate over this many equal segments of the
  /// timed steps, so a burst of interference from outside the process moves
  /// one segment only. 1 where a few scripted steps hold most of the cost
  /// (sim_churn's recoveries) and segments would differ in work.
  std::uint32_t segments;
};
constexpr Shape kShapes[] = {
    {"net_quiet", 100, 800.0, 5},
    {"sim_churn", 2, 120.0, 1},
    {"engine_bursty", 50, 240.0, 5},
};
constexpr int kSetups = 3;  ///< set-ups per run; setup_s is their median

constexpr std::uint32_t kNetHosts = 2;
constexpr std::size_t kEngineThreads = 3;
constexpr std::size_t kEngineQueryCount = 32;
/// The engine's query mix, cycled up to kEngineQueryCount (topk_engine --query syntax).
constexpr const char* kEngineQueries[] = {
    "topk:k=8",
    "kselect:k=8,eps=0.2",
    "topk:k=16,eps=0.05",
    "threshold:bound=30000",
    "topk:k=4,window=64",
    "topk:k=8,proto=topk_protocol",
    "topk:k=8,proto=exact_topk",
    "distinct:eps=0.5",
};
constexpr std::size_t kNumEngineQueries = std::size(kEngineQueries);

topkmon::StreamSpec random_walk_spec() {
  topkmon::StreamSpec s;
  s.kind = "random_walk";
  s.n = 16384;
  s.k = 8;
  s.epsilon = 0.1;
  s.delta = topkmon::Value{1} << 20;
  s.walk_step = 64;
  return s;
}

topkmon::StreamSpec zipf_bursty_spec() {
  topkmon::StreamSpec s;
  s.kind = "zipf_bursty";
  s.n = 2048;
  s.delta = 65536;
  return s;
}

// ---------------------------------------------------------------- measuring

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return 1e-9 * static_cast<double>(t1 - t0);
}

/// What one step left behind: cumulative messages and rounds, and a
/// fingerprint of every answer. Two runs of one seed must agree on all three.
struct StepRecord {
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  std::uint64_t answer = 0;
  friend bool operator==(const StepRecord&, const StepRecord&) = default;
};

StepRecord record_of(const topkmon::Simulator& sim) {
  const topkmon::CommStats& s = sim.context().stats();
  return {s.total(), s.total_rounds(), answer_fingerprint(sim.protocol(), sim.config().k)};
}

/// Exact counters of a system at one instant.
struct Counters {
  StatsSnapshot stats;
  std::uint64_t order_repairs = 0;
  std::uint64_t order_rebuilds = 0;
  std::uint64_t probe_calls = 0;
  std::uint64_t probe_ranks = 0;
  std::uint64_t shared_probe_messages = 0;
  friend bool operator==(const Counters&, const Counters&) = default;
};

Counters sim_counters(const topkmon::Simulator& sim) {
  Counters c;
  c.stats = sim.result();
  if (const topkmon::TopKOrder* order = sim.fleet().order_if_ready()) {
    c.order_repairs = order->repairs();
    c.order_rebuilds = order->rebuilds();
  }
  return c;
}

/// One measured pass over a system.
struct Measured {
  std::vector<std::uint64_t> lat_ns;  ///< one per timed step
  std::vector<std::uint64_t> ends_ns;  ///< timing start, then the end of each timed step
  std::vector<StepRecord> records;    ///< one per step, set-up steps included
  std::vector<double> setups_s;       ///< construction + warm-up, per set-up
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;
  Counters warm;  ///< at the end of warm-up
  Counters end;   ///< at the end of the run
  SpanLog loop;  ///< traced: one kStep span per step
};

/// One constructed in-process system under test.
class Instance {
 public:
  virtual ~Instance() = default;
  virtual void step() = 0;
  virtual StepRecord record() const = 0;
  virtual Counters counters() const = 0;
  /// Traced: logs the profiler spans the step just taken left behind.
  virtual void trace_step(std::uint32_t step) { (void)step; }
  virtual std::vector<const SpanLog*> logs() const { return {}; }
  virtual std::vector<const TracedProtocol*> protocols() const { return {}; }
};

using InstanceFactory = std::function<std::unique_ptr<Instance>()>;

/// The closed loop of the in-process workloads: `setups` times construct a
/// system and run its `warm` set-up steps, then time `timed` steps of the
/// last one, one latency sample each. Returns that last system.
std::unique_ptr<Instance> measure(const InstanceFactory& make, int setups, std::uint32_t warm,
                                  std::uint32_t timed, bool traced, Measured& m) {
  std::unique_ptr<Instance> inst;
  for (int r = 0; r < setups; ++r) {
    inst.reset();
    m.records.clear();
    const std::uint64_t t0 = now_ns();
    inst = make();
    for (std::uint32_t t = 0; t < warm; ++t) {
      inst->step();
      m.records.push_back(inst->record());
      if (traced) inst->trace_step(t);
    }
    m.setups_s.push_back(seconds_between(t0, now_ns()));
  }
  m.records.reserve(warm + timed);
  m.lat_ns.assign(timed, 0);
  m.ends_ns.assign(timed + 1, 0);
  if (traced) m.loop.reserve(timed);
  m.warm = inst->counters();
  const double cpu0 = cpu_seconds();
  const std::uint64_t wall0 = now_ns();
  m.ends_ns[0] = wall0;
  for (std::uint32_t i = 0; i < timed; ++i) {
    const std::uint64_t a = now_ns();
    inst->step();
    const std::uint64_t b = now_ns();
    m.lat_ns[i] = b - a;
    m.records.push_back(inst->record());
    m.ends_ns[i + 1] = now_ns();
    if (traced) {
      m.loop.add(warm + i, Layer::kStep, Layer::kStep, 0, a, b - a);
      inst->trace_step(warm + i);
    }
  }
  m.wall_s = seconds_between(wall0, now_ns());
  m.cpu_s = cpu_seconds() - cpu0;
  m.end = inst->counters();
  m.peak_rss_mib = peak_rss_mib();
  return inst;
}

/// The Simulator phases below the step that have no public seam.
std::array<PhaseMap, 6> sim_phases(Layer parent) {
  return {{
      {Phase::kFaultInject, Layer::kFaults, parent},
      {Phase::kWindowMerge, Layer::kWindowMerge, parent},
      {Phase::kAdvanceTime, Layer::kAdvanceTime, parent},
      {Phase::kViolationCollect, Layer::kViolationCollect, Layer::kProtocol},
      {Phase::kOrderUpdate, Layer::kOrderUpdate, parent},
      {Phase::kSigma, Layer::kSigma, parent},
  }};
}

// ---------------------------------------------------------------- sim_churn

class SimInstance final : public Instance {
 public:
  SimInstance(std::uint64_t seed, std::uint32_t horizon, bool strict, bool traced) {
    const topkmon::StreamSpec spec = random_walk_spec();
    topkmon::SimConfig cfg;
    cfg.k = spec.k;
    cfg.epsilon = spec.epsilon;
    cfg.seed = seed;
    cfg.strict = strict;
    topkmon::FaultConfig faults = topkmon::fault_preset("churn");
    faults.horizon = horizon;
    faults.seed = seed;
    cfg.faults = topkmon::make_fleet_schedule(faults, spec.n);
    std::unique_ptr<topkmon::StreamGenerator> gen = topkmon::make_stream(spec);
    std::string protocol = "combined";
    if (traced) {
      gen = std::make_unique<TracedStream>(std::move(gen), &streams_);
      protocol = traced_protocol_name(protocol);
    }
    sim_ = std::make_unique<topkmon::Simulator>(cfg, std::move(gen),
                                                topkmon::make_protocol(protocol));
    if (traced) {
      protocol_ = take_traced_protocols().at(0);
      sim_->set_profiler(&prof_);
    }
  }

  void step() override { sim_->step(); }
  StepRecord record() const override { return record_of(*sim_); }
  Counters counters() const override { return sim_counters(*sim_); }
  void trace_step(std::uint32_t step) override {
    const auto map = sim_phases(Layer::kStep);
    tap_.flush(phases_, step, 0, map);
  }
  std::vector<const SpanLog*> logs() const override {
    return {&streams_, &phases_, &protocol_->log()};
  }
  std::vector<const TracedProtocol*> protocols() const override { return {protocol_}; }

 private:
  SpanLog streams_;
  SpanLog phases_;
  topkmon::telemetry::StepProfiler prof_;
  PhaseTap tap_{&prof_};
  std::unique_ptr<topkmon::Simulator> sim_;
  TracedProtocol* protocol_ = nullptr;  ///< owned by sim_
};

// ---------------------------------------------------------------- engine_bursty

class EngineInstance final : public Instance {
 public:
  EngineInstance(std::uint64_t seed, std::size_t threads, bool strict, bool traced) {
    topkmon::EngineConfig cfg;
    cfg.threads = threads;
    cfg.seed = seed;
    std::unique_ptr<topkmon::StreamGenerator> gen = topkmon::make_stream(zipf_bursty_spec());
    if (traced) gen = std::make_unique<TracedStream>(std::move(gen), &streams_);
    engine_ = std::make_unique<topkmon::MonitoringEngine>(cfg, std::move(gen));
    if (traced) engine_->attach_telemetry(&sink_);
    for (std::size_t q = 0; q < kEngineQueryCount; ++q) {
      topkmon::QuerySpec spec = topkmon::parse_query_spec(kEngineQueries[q % kNumEngineQueries]);
      if (spec.protocol.empty()) spec.protocol = topkmon::default_protocol_for(spec.kind);
      spec.strict = strict;
      if (traced) spec.protocol = traced_protocol_name(spec.protocol);
      engine_->add_query(std::move(spec));
    }
    if (traced) {
      protocols_ = take_traced_protocols();
      for (std::size_t q = 0; q < protocols_.size(); ++q) {
        protocols_[q]->place(static_cast<std::uint16_t>(q), Layer::kShard);
      }
    }
  }

  void step() override { engine_->step(); }

  StepRecord record() const override {
    StepRecord r;
    for (topkmon::QueryHandle h = 0; h < engine_->query_count(); ++h) {
      const StepRecord q = record_of(engine_->query_sim(h));
      r.messages += q.messages;
      r.rounds += q.rounds;
      r.answer = (r.answer * 0x100000001B3ull) ^ q.answer;
    }
    return r;
  }

  Counters counters() const override {
    const topkmon::EngineStats s = engine_->stats();
    Counters c;
    c.stats = s.totals();
    c.probe_calls = s.probe_calls;
    c.probe_ranks = s.probe_ranks_computed;
    c.shared_probe_messages = s.shared_probe_messages;
    return c;
  }

  void trace_step(std::uint32_t step) override {
    static constexpr PhaseMap kMain[] = {
        {Phase::kFaultInject, Layer::kFaults, Layer::kStep},
        {Phase::kSnapshotBegin, Layer::kSnapshot, Layer::kStep},
    };
    static constexpr PhaseMap kShardMap[] = {
        {Phase::kShardAdvance, Layer::kShard, Layer::kStep},
        {Phase::kAdvanceTime, Layer::kAdvanceTime, Layer::kShard},
        {Phase::kViolationCollect, Layer::kViolationCollect, Layer::kProtocol},
        {Phase::kOrderUpdate, Layer::kOrderUpdate, Layer::kShard},
        {Phase::kSigma, Layer::kSigma, Layer::kShard},
        {Phase::kWindowMerge, Layer::kWindowMerge, Layer::kShard},
    };
    main_tap_.flush(phases_, step, 0, kMain);
    if (shard_taps_.empty()) {  // shard profilers exist once the engine started
      for (std::size_t s = 0; s < sink_.shard_profiler_count(); ++s) {
        shard_taps_.emplace_back(&sink_.shard_profiler(s));
      }
    }
    for (std::size_t s = 0; s < shard_taps_.size(); ++s) {
      shard_taps_[s].flush(phases_, step, static_cast<std::uint16_t>(s), kShardMap);
    }
  }

  std::vector<const SpanLog*> logs() const override {
    std::vector<const SpanLog*> out{&streams_, &phases_};
    for (const TracedProtocol* p : protocols_) out.push_back(&p->log());
    return out;
  }
  std::vector<const TracedProtocol*> protocols() const override {
    return {protocols_.begin(), protocols_.end()};
  }

 private:
  SpanLog streams_;
  SpanLog phases_;
  topkmon::telemetry::TelemetrySink sink_;
  PhaseTap main_tap_{&sink_.profiler()};
  std::vector<PhaseTap> shard_taps_;
  std::unique_ptr<topkmon::MonitoringEngine> engine_;
  std::vector<TracedProtocol*> protocols_;  ///< owned by engine_, handle order
};

// ---------------------------------------------------------------- net_quiet

/// Coordinator-side observer of every frame. It turns the lockstep exchange
/// into step start (first StepBegin sent) and end (last StepAck in) times,
/// reads each step's quiescence verdicts, counts timed-step wire traffic
/// and, when tracing, logs the coordinator's send and receive spans.
class CoordClock final : public FrameObserver {
 public:
  using StepEnd = std::function<void(std::uint32_t step, std::uint64_t start,
                                     std::uint64_t end, std::uint64_t qerr)>;

  CoordClock(std::uint32_t hosts, std::uint32_t first_timed, SpanLog* log, StepEnd on_end)
      : hosts_(hosts), first_timed_(first_timed), log_(log), on_end_(std::move(on_end)) {}

  void on_send(const std::vector<std::uint8_t>& frame, std::uint64_t t0,
               std::uint64_t t1) override {
    const net::MsgType type = frame_type(frame);
    if (type == net::MsgType::kStepBegin) {
      if (begins_ % hosts_ == 0) {
        step_ = begins_ / hosts_;
        start_ = t0;
        reports_ = acks_ = updates_ = 0;
        qerr_ = 0;
        in_step_ = true;
      }
      ++begins_;
    } else if (type == net::MsgType::kFilterUpdate && updates_++ == 0 && log_ != nullptr) {
      log_->add(step_, Layer::kSimStep, Layer::kStep, 0, reports_end_, t0 - reports_end_);
    }
    if (!in_step_) return;  // handshake and shutdown frames
    if (step_ >= first_timed_) {
      ++frames_;
      bytes_down_ += frame.size();
    }
    if (log_ != nullptr) log_->add(step_, Layer::kCoordSend, Layer::kStep, 0, t0, t1 - t0);
  }

  void on_recv(const std::vector<std::uint8_t>& frame, std::uint64_t t0,
               std::uint64_t t1) override {
    if (!in_step_) return;  // hello frames
    if (step_ >= first_timed_) {
      ++frames_;
      bytes_up_ += frame.size();
    }
    if (log_ != nullptr) log_->add(step_, Layer::kCoordRecv, Layer::kStep, 0, t0, t1 - t0);
    const net::MsgType type = frame_type(frame);
    if (type == net::MsgType::kShardValues && ++reports_ == hosts_) reports_end_ = t1;
    if (type == net::MsgType::kStepAck) {
      qerr_ += net::decode_step_ack(net::parse_frame(frame)).quiescence_errors;
      if (++acks_ == hosts_) {
        in_step_ = false;
        on_end_(step_, start_, t1, qerr_);
      }
    }
  }

  std::uint64_t frames() const { return frames_; }
  std::uint64_t bytes_up() const { return bytes_up_; }
  std::uint64_t bytes_down() const { return bytes_down_; }

 private:
  std::uint32_t hosts_;
  std::uint32_t first_timed_;
  SpanLog* log_;
  StepEnd on_end_;
  std::uint64_t begins_ = 0;
  std::uint32_t step_ = 0;
  bool in_step_ = false;
  std::uint64_t start_ = 0;
  std::uint64_t reports_end_ = 0;
  std::uint32_t reports_ = 0, acks_ = 0, updates_ = 0;
  std::uint64_t qerr_ = 0;
  std::uint64_t frames_ = 0, bytes_up_ = 0, bytes_down_ = 0;
};

/// Node-host-side observer: splits the host's time into waiting in recv and
/// busy between two recv calls, per step.
class HostTap final : public FrameObserver {
 public:
  explicit HostTap(std::uint16_t host) : host_(host) {}

  void on_send(const std::vector<std::uint8_t>&, std::uint64_t, std::uint64_t) override {}
  void on_recv(const std::vector<std::uint8_t>& frame, std::uint64_t t0,
               std::uint64_t t1) override {
    if (step_ >= 0) {
      log_.add(static_cast<std::uint32_t>(step_), Layer::kHostBusy, Layer::kStep, host_,
               last_end_, t0 - last_end_);
    }
    if (frame_type(frame) == net::MsgType::kStepBegin) ++step_;
    if (step_ >= 0) {
      log_.add(static_cast<std::uint32_t>(step_), Layer::kHostWait, Layer::kStep, host_, t0,
               t1 - t0);
    }
    last_end_ = t1;
  }
  const SpanLog& log() const { return log_; }

 private:
  std::uint16_t host_;
  std::int64_t step_ = -1;
  std::uint64_t last_end_ = 0;
  SpanLog log_;
};

topkmon::net::RunSpec net_spec(std::uint64_t seed) {
  net::RunSpec spec;
  spec.stream = random_walk_spec();
  spec.protocol = "combined";
  spec.protocol_epsilon = spec.stream.epsilon;
  spec.seed = seed;
  return spec;
}

struct NetRun {
  Measured m;
  topkmon::RunResult result;
  topkmon::OutputSet output;
  std::vector<std::uint64_t> qerr_by_step;
  std::uint64_t frames = 0, bytes_up = 0, bytes_down = 0;  ///< timed steps
  // traced passes only
  SpanLog coord_log, phase_log, protocol_log;
  std::vector<SpanLog> host_logs;
  std::uint64_t steps_with_messages = 0, useful_steps = 0;
};

/// One networked run of warm + timed steps: a coordinator on this thread and
/// kNetHosts NodeHost threads over loopback transports.
void run_net(const net::RunSpec& base, std::uint32_t warm, std::uint32_t timed,
             bool traced, const std::vector<int>& cpus, NetRun& out) {
  const std::uint64_t t_setup = now_ns();
  net::RunSpec spec = base;
  spec.steps = warm + timed;
  if (traced) spec.protocol = traced_protocol_name(spec.protocol);
  Measured& m = out.m;
  m.records.reserve(spec.steps);
  m.lat_ns.assign(timed, 0);
  m.ends_ns.assign(timed + 1, 0);
  out.qerr_by_step.assign(spec.steps, 0);

  topkmon::telemetry::StepProfiler prof;
  PhaseTap tap(&prof);
  const auto map = sim_phases(Layer::kSimStep);
  const topkmon::Simulator* sim = nullptr;
  double cpu0 = 0.0;
  std::uint64_t wall0 = 0;
  const std::uint32_t last = warm + timed - 1;
  CoordClock clock(kNetHosts, warm, traced ? &out.coord_log : nullptr,
                   [&](std::uint32_t step, std::uint64_t start, std::uint64_t end,
                       std::uint64_t qerr) {
                     m.records.push_back(record_of(*sim));
                     out.qerr_by_step[step] = qerr;
                     if (traced) {
                       out.coord_log.add(step, Layer::kStep, Layer::kStep, 0, start,
                                         end - start);
                       tap.flush(out.phase_log, step, 0, map);
                     }
                     if (step >= warm) {
                       m.lat_ns[step - warm] = end - start;
                       m.ends_ns[step - warm + 1] = end;
                     }
                     if (step + 1 == warm) {
                       m.setups_s.push_back(seconds_between(t_setup, end));
                       m.warm = sim_counters(*sim);
                       cpu0 = cpu_seconds();
                       wall0 = end;
                       m.ends_ns[0] = end;
                     }
                     if (step == last) {
                       m.wall_s = seconds_between(wall0, end);
                       m.cpu_s = cpu_seconds() - cpu0;
                       m.end = sim_counters(*sim);
                     }
                   });

  std::vector<std::unique_ptr<HostTap>> taps;
  std::vector<std::unique_ptr<net::Link>> coord_links, node_links;
  for (std::uint32_t h = 0; h < kNetHosts; ++h) {
    net::TransportPair pair = net::make_loopback_pair();
    coord_links.push_back(std::make_unique<net::Link>(
        std::make_unique<TimedTransport>(std::move(pair.a), &clock)));
    std::unique_ptr<net::Transport> node_end = std::move(pair.b);
    if (traced) {
      taps.push_back(std::make_unique<HostTap>(static_cast<std::uint16_t>(h)));
      node_end = std::make_unique<TimedTransport>(std::move(node_end), taps.back().get());
    }
    node_links.push_back(std::make_unique<net::Link>(std::move(node_end)));
  }
  net::NetCoordinator coordinator(spec, std::move(coord_links));
  sim = &coordinator.sim();
  TracedProtocol* protocol = nullptr;  // owned by the coordinator
  if (traced) {
    protocol = take_traced_protocols().at(0);
    protocol->place(0, Layer::kSimStep);
    coordinator.sim().set_profiler(&prof);
  }

  std::vector<std::unique_ptr<net::NodeHost>> hosts;
  for (std::uint32_t h = 0; h < kNetHosts; ++h) {
    hosts.push_back(std::make_unique<net::NodeHost>(std::move(node_links[h]), h, kNetHosts));
  }
  std::vector<int> exits(kNetHosts, -1);
  std::vector<std::thread> threads;
  for (std::uint32_t h = 0; h < kNetHosts; ++h) {
    threads.emplace_back([&exits, &hosts, &cpus, h] {
      if (cpus.size() > h + 1) pin_current_thread({cpus[h + 1]});
      exits[h] = hosts[h]->run();
    });
  }
  try {
    out.result = coordinator.run();
  } catch (...) {
    for (std::thread& th : threads) th.join();  // run() closed the links
    throw;
  }
  for (std::thread& th : threads) th.join();
  for (std::uint32_t h = 0; h < kNetHosts; ++h) {
    if (exits[h] != 0) {
      throw std::runtime_error("node-host " + std::to_string(h) + " failed: " +
                               hosts[h]->error());
    }
  }
  m.peak_rss_mib = peak_rss_mib();
  out.output = coordinator.output();
  out.frames = clock.frames();
  out.bytes_up = clock.bytes_up();
  out.bytes_down = clock.bytes_down();
  if (traced) {
    out.protocol_log = protocol->log();
    out.steps_with_messages = protocol->steps_with_messages(warm);
    out.useful_steps = protocol->useful_steps(warm);
    for (const auto& t : taps) out.host_logs.push_back(t->log());
  }
}

// ---------------------------------------------------------------- metrics

double nearest_rank(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1]);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Samples per block of the p99 estimate: at least ten lie beyond each
/// block's p99.
constexpr std::size_t kTailBlock = 1000;

/// The p99 of each block of consecutive samples, median over the blocks, so
/// one burst of interference from outside the process moves one block only.
double blocked_p99(const std::vector<std::uint64_t>& samples) {
  const std::size_t blocks = std::max<std::size_t>(1, samples.size() / kTailBlock);
  const std::size_t per = samples.size() / blocks;
  std::vector<double> p99s;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * per);
    const auto last = b + 1 == blocks ? samples.end() : first + static_cast<std::ptrdiff_t>(per);
    std::vector<std::uint64_t> block(first, last);
    std::sort(block.begin(), block.end());
    p99s.push_back(nearest_rank(block, 0.99));
  }
  return median(p99s);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Median over `segments` equal runs of consecutive timed steps of their
/// step rate; with one segment, timed steps over the whole timed wall time.
double segment_rate(const std::vector<std::uint64_t>& ends, std::uint32_t segments) {
  const std::size_t steps = ends.size() - 1;
  const std::size_t per = steps / segments;
  if (per == 0) return ratio(static_cast<double>(steps), seconds_between(ends.front(), ends.back()));
  std::vector<double> rates;
  for (std::uint32_t j = 0; j < segments; ++j) {
    const std::size_t first = j * per;
    const std::size_t last = j + 1 == segments ? steps : first + per;
    rates.push_back(ratio(static_cast<double>(last - first),
                          seconds_between(ends[first], ends[last])));
  }
  return median(rates);
}

std::vector<Metric> end_to_end(const Measured& m, std::uint32_t segments,
                               std::vector<std::string>& notes) {
  const auto timed = static_cast<double>(m.lat_ns.size());
  std::vector<std::uint64_t> sorted = m.lat_ns;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t blocks = std::max<std::size_t>(1, sorted.size() / kTailBlock);
  const std::size_t per = sorted.size() / blocks;
  // step_p99_us is reported here, not as a gated metric: on a shared VM its
  // run-to-run spread is several times any usable regression bound.
  notes.push_back("step_p99_us: " + std::to_string(1e-3 * blocked_p99(m.lat_ns)) + " us");
  notes.push_back("latency samples: " + std::to_string(sorted.size()) + " in " +
                  std::to_string(blocks) + " p99 blocks, beyond each block's p99: " +
                  std::to_string(per - static_cast<std::size_t>(
                                           std::ceil(0.99 * static_cast<double>(per)))));
  notes.push_back("steps_per_s over the whole timed run: " +
                  std::to_string(ratio(timed, m.wall_s)));
  return {
      {"steps_per_s", segment_rate(m.ends_ns, segments), "steps/s"},
      {"step_p50_us", 1e-3 * nearest_rank(sorted, 0.50), "us"},
      // Over every step the run took, set-up included, so that it equals the
      // "messages / step" row of topk_sim/topk_engine/topk_coord for the
      // same seed and step count.
      {"messages_per_step",
       ratio(static_cast<double>(m.end.stats.messages), static_cast<double>(m.records.size())),
       "msgs/step"},
      {"cpu_us_per_step", ratio(1e6 * m.cpu_s, timed), "us"},
      {"setup_s", median(m.setups_s), "s"},
      {"peak_rss_mb", m.peak_rss_mib, "MiB"},
  };
}

struct LayerSums {
  std::array<double, kNumLayers> ns{};
  std::array<std::uint64_t, kNumLayers> calls{};
  double operator[](Layer l) const { return ns[static_cast<std::size_t>(l)]; }
  std::uint64_t count(Layer l) const { return calls[static_cast<std::size_t>(l)]; }
};

LayerSums sum_layers(const std::vector<const SpanLog*>& logs, std::uint32_t first) {
  LayerSums s;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (span.step < first) continue;
      s.ns[static_cast<std::size_t>(span.layer)] += static_cast<double>(span.dur_ns);
      ++s.calls[static_cast<std::size_t>(span.layer)];
    }
  }
  return s;
}

/// Σ over steps of the busiest lane's total `layer` time in that step — the
/// parallel part's share of a step when lanes run side by side.
double sum_of_step_max(const std::vector<const SpanLog*>& logs, Layer layer,
                       std::uint32_t first, std::uint32_t steps) {
  std::vector<std::vector<std::uint64_t>> per_step(steps);
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (span.layer != layer || span.step < first || span.step >= steps) continue;
      std::vector<std::uint64_t>& lanes = per_step[span.step];
      if (lanes.size() <= span.lane) lanes.resize(span.lane + 1u, 0);
      lanes[span.lane] += span.dur_ns;
    }
  }
  double total = 0.0;
  for (const auto& lanes : per_step) {
    if (!lanes.empty()) total += static_cast<double>(*std::max_element(lanes.begin(), lanes.end()));
  }
  return total;
}

enum class Kind { kNet, kSim, kEngine };

/// Everything the per-layer table is computed from.
struct LayerInputs {
  Kind kind;
  std::uint32_t first = 0;  ///< first timed step
  std::uint32_t timed = 0;
  std::vector<const SpanLog*> logs;
  Counters warm, end;
  std::uint64_t steps_with_messages = 0, useful_steps = 0;
  std::array<double, topkmon::kNumQueryKinds> protocol_ns_by_kind{};
  double untraced_steps_per_s = 0.0, traced_steps_per_s = 0.0;
  double single_worker_steps_per_s = 0.0;  ///< engine
  const NetRun* net = nullptr;
};

std::vector<Metric> per_layer(const LayerInputs& in) {
  const double n = in.timed;
  const LayerSums s = sum_layers(in.logs, in.first);
  const double root = s[Layer::kStep];
  const StatsSnapshot& a = in.warm.stats;
  const StatsSnapshot& b = in.end.stats;
  const auto delta = [](std::uint64_t x0, std::uint64_t x1) {
    return static_cast<double>(x1 - x0);
  };
  const auto tag = [&](topkmon::MessageTag t) {
    const auto i = static_cast<std::size_t>(t);
    return delta(a.by_tag[i], b.by_tag[i]) / n;
  };
  const double sim_internal = s[Layer::kWindowMerge] + s[Layer::kAdvanceTime] +
                              s[Layer::kProtocol] + s[Layer::kRecovery] +
                              s[Layer::kOrderUpdate] + s[Layer::kSigma];
  const double protocol_ns = s[Layer::kProtocol] + s[Layer::kRecovery];
  const double rounds = delta(a.rounds, b.rounds);

  double sim_step = 0.0, sim_self = 0.0, covered = 0.0;
  double engine_serial = 0.0, shard_max = 0.0;
  switch (in.kind) {
    case Kind::kSim:
      sim_step = root;
      sim_self = root - s[Layer::kStreams] - s[Layer::kFaults] - sim_internal;
      covered = s[Layer::kStreams] + s[Layer::kFaults] + sim_internal;
      break;
    case Kind::kEngine:
      sim_step = s[Layer::kShard];
      sim_self = sim_step - sim_internal;
      engine_serial = s[Layer::kStreams] + s[Layer::kFaults] + s[Layer::kSnapshot];
      shard_max = sum_of_step_max(in.logs, Layer::kShard, in.first, in.first + in.timed);
      covered = engine_serial + shard_max;
      break;
    case Kind::kNet:
      sim_step = s[Layer::kSimStep];
      sim_self = sim_step - sim_internal;
      covered = s[Layer::kCoordSend] + s[Layer::kCoordRecv] + sim_internal;
      break;
  }

  std::vector<Metric> out;
  const auto put = [&](const char* name, double value, const char* unit) {
    out.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  };
  put("streams.step_ns", s[Layer::kStreams] / n, "ns");
  put("faults.inject_ns", s[Layer::kFaults] / n, "ns");
  put("faults.stale_reads_per_step", delta(a.stale_reads, b.stale_reads) / n, "count");
  put("faults.recovery_rounds", delta(a.recovery_rounds, b.recovery_rounds), "count");
  put("model.order_update_ns", s[Layer::kOrderUpdate] / n, "ns");
  put("model.sigma_ns", s[Layer::kSigma] / n, "ns");
  put("model.window_merge_ns", (s[Layer::kWindowMerge] + s[Layer::kSnapshot]) / n, "ns");
  put("model.order_rebuilds", delta(in.warm.order_rebuilds, in.end.order_rebuilds) / n, "count");
  put("model.order_repairs", delta(in.warm.order_repairs, in.end.order_repairs) / n, "count");
  put("sim.step_ns", sim_step / n, "ns");
  put("sim.advance_time_ns", s[Layer::kAdvanceTime] / n, "ns");
  put("sim.violation_collect_ns", s[Layer::kViolationCollect] / n, "ns");
  put("sim.self_ns", sim_self / n, "ns");
  put("protocols.step_ns", s[Layer::kProtocol] / n, "ns");
  put("protocols.recovery_ns",
      ratio(s[Layer::kRecovery], static_cast<double>(s.count(Layer::kRecovery))), "ns");
  put("protocols.rounds_per_step", rounds / n, "count");
  put("protocols.ns_per_round", ratio(protocol_ns, rounds), "ns");
  put("protocols.msgs.existence", tag(topkmon::MessageTag::kExistence), "msgs/step");
  put("protocols.msgs.violation", tag(topkmon::MessageTag::kViolation), "msgs/step");
  put("protocols.msgs.probe", tag(topkmon::MessageTag::kProbe), "msgs/step");
  put("protocols.msgs.filter_broadcast", tag(topkmon::MessageTag::kFilterBroadcast),
      "msgs/step");
  put("protocols.msgs.filter_unicast", tag(topkmon::MessageTag::kFilterUnicast), "msgs/step");
  put("protocols.useful_step_frac",
      ratio(static_cast<double>(in.useful_steps), static_cast<double>(in.steps_with_messages)),
      "fraction");

  const bool engine = in.kind == Kind::kEngine;
  const auto by_kind = [&](topkmon::QueryKind k) {
    return in.protocol_ns_by_kind[static_cast<std::size_t>(k)] / n;
  };
  const double probe_calls = delta(in.warm.probe_calls, in.end.probe_calls);
  put("engine.step_ns", engine ? root / n : 0.0, "ns");
  put("engine.serial_ns", engine_serial / n, "ns");
  put("engine.shard_busy_ns", engine ? s[Layer::kShard] / n : 0.0, "ns");
  put("engine.parallel_efficiency",
      engine ? ratio(s[Layer::kShard],
                     static_cast<double>(kEngineThreads) * (root - engine_serial))
             : 0.0,
      "fraction");
  put("engine.thread_speedup",
      ratio(in.untraced_steps_per_s, in.single_worker_steps_per_s), "x");
  put("engine.protocol_ns.topk", engine ? by_kind(topkmon::QueryKind::kTopK) : 0.0, "ns");
  put("engine.protocol_ns.kselect", engine ? by_kind(topkmon::QueryKind::kKSelect) : 0.0,
      "ns");
  put("engine.protocol_ns.distinct",
      engine ? by_kind(topkmon::QueryKind::kCountDistinct) : 0.0, "ns");
  put("engine.protocol_ns.threshold", engine ? by_kind(topkmon::QueryKind::kThreshold) : 0.0,
      "ns");
  put("engine.probe_calls_per_step", probe_calls / n, "count");
  put("engine.probe_ranks_per_call",
      ratio(delta(in.warm.probe_ranks, in.end.probe_ranks), probe_calls), "count");
  put("engine.shared_probe_msgs_per_step",
      delta(in.warm.shared_probe_messages, in.end.shared_probe_messages) / n, "msgs/step");

  const NetRun* nr = in.net;
  double host_busy_max = 0.0;
  if (nr != nullptr) {
    std::vector<const SpanLog*> host_logs;
    for (const SpanLog& l : nr->host_logs) host_logs.push_back(&l);
    host_busy_max = sum_of_step_max(host_logs, Layer::kHostBusy, in.first, in.first + in.timed);
  }
  const double up = nr != nullptr ? static_cast<double>(nr->bytes_up) : 0.0;
  const double down = nr != nullptr ? static_cast<double>(nr->bytes_down) : 0.0;
  put("net.coord_step_ns", nr != nullptr ? root / n : 0.0, "ns");
  put("net.coord_send_ns", s[Layer::kCoordSend] / n, "ns");
  put("net.coord_recv_wait_ns", s[Layer::kCoordRecv] / n, "ns");
  put("net.coord_compute_ns",
      nr != nullptr ? (root - s[Layer::kCoordSend] - s[Layer::kCoordRecv]) / n : 0.0, "ns");
  put("net.coord_protocol_ns", nr != nullptr ? protocol_ns / n : 0.0, "ns");
  put("net.host_busy_ns", host_busy_max / n, "ns");
  put("net.host_idle_frac",
      nr != nullptr ? 1.0 - ratio(s[Layer::kHostBusy] / kNetHosts, root) : 0.0, "fraction");
  put("net.frames_per_step", nr != nullptr ? static_cast<double>(nr->frames) / n : 0.0,
      "count");
  put("net.bytes_up_per_step", up / n, "B/step");
  put("net.bytes_down_per_step", down / n, "B/step");
  put("net.bytes_per_model_msg", ratio(up + down, delta(a.messages, b.messages)), "B/msg");

  put("trace.overhead_frac", ratio(in.untraced_steps_per_s, in.traced_steps_per_s) - 1.0,
      "fraction");
  put("trace.unattributed_frac", ratio(root - covered, root), "fraction");
  return out;
}

// ---------------------------------------------------------------- checks

/// Marks every step where the two runs' records differ (a missing record
/// counts as a difference).
void mark_mismatches(const std::vector<StepRecord>& a, const std::vector<StepRecord>& b,
                     std::vector<bool>& failed) {
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (i >= a.size() || i >= b.size() || !(a[i] == b[i])) failed[i] = true;
  }
}

struct Verdict {
  std::vector<bool> failed;  ///< per step
  bool all_failed = false;   ///< a whole-run check failed
  std::vector<Check> checks;

  void check_run(bool ok, const std::string& what) {
    checks.push_back({what, ok, ok ? "identical" : "MISMATCH"});
    all_failed |= !ok;
  }
  void check_steps(const std::vector<StepRecord>& a, const std::vector<StepRecord>& b,
                   const std::string& what) {
    std::vector<bool> diff(failed.size(), false);
    mark_mismatches(a, b, diff);
    const auto bad = static_cast<std::size_t>(std::count(diff.begin(), diff.end(), true));
    checks.push_back({what, bad == 0,
                      std::to_string(bad) + " of " + std::to_string(diff.size()) +
                          " steps differ"});
    for (std::size_t i = 0; i < diff.size(); ++i) failed[i] = failed[i] || diff[i];
  }
  std::uint64_t failures() const {
    return all_failed ? failed.size()
                      : static_cast<std::uint64_t>(std::count(failed.begin(), failed.end(), true));
  }
};

bool same_model_result(const topkmon::RunResult& net_run, const topkmon::RunResult& sim_run) {
  StatsSnapshot a = net_run;
  a.net = {};
  return a == static_cast<const StatsSnapshot&>(sim_run) && net_run.steps == sim_run.steps &&
         net_run.max_rounds_per_step == sim_run.max_rounds_per_step &&
         net_run.max_sigma == sim_run.max_sigma;
}

bool same_net_run(const NetRun& a, const NetRun& b) {
  return static_cast<const StatsSnapshot&>(a.result) ==
             static_cast<const StatsSnapshot&>(b.result) &&
         a.result.steps == b.result.steps &&
         a.result.max_rounds_per_step == b.result.max_rounds_per_step &&
         a.result.max_sigma == b.result.max_sigma && a.output == b.output &&
         a.frames == b.frames && a.bytes_up == b.bytes_up && a.bytes_down == b.bytes_down;
}

void finish(Report& r, const Verdict& v) {
  r.attempted = v.failed.size();
  r.failed = v.failures();
  r.correct = r.failed == 0;
  r.checks = v.checks;
  r.notes.push_back("failed_step_frac: " +
                    std::to_string(ratio(static_cast<double>(r.failed),
                                         static_cast<double>(r.attempted))));
}

void write_spans(const RunOptions& opts, const std::vector<const SpanLog*>& logs,
                 Report& r) {
  if (opts.spans_dir.empty()) return;
  const std::string path = opts.spans_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".spans.csv";
  r.notes.push_back(write_spans_csv(path, logs) ? "spans: " + path
                                                : "spans: could not write " + path);
}

// ---------------------------------------------------------------- workloads

Report run_net_quiet(const RunOptions& opts, const Shape& shape, std::uint32_t timed,
                     const std::function<void(const Report&)>& measured) {
  const std::uint32_t warm = shape.warmup;
  const net::RunSpec spec = net_spec(opts.seed);
  // One core per thread while the networked runs measure: the coordinator
  // (this thread) on the first, node-host h on the (h+2)-th.
  const std::vector<int> allowed = allowed_cpus();
  std::vector<int> cpus;
  if (allowed.size() > kNetHosts) cpus.assign(allowed.begin(), allowed.begin() + kNetHosts + 1);
  struct Unpin {
    const std::vector<int>& cpus;
    ~Unpin() { pin_current_thread(cpus); }
  } unpin{allowed};
  if (!cpus.empty()) pin_current_thread({cpus[0]});
  Report report;
  std::vector<double> setups;
  for (int r = 1; r < kSetups; ++r) {  // set-up only runs
    NetRun setup;
    run_net(spec, warm, 0, false, cpus, setup);
    setups.push_back(setup.m.setups_s.at(0));
  }
  NetRun base;
  run_net(spec, warm, timed, false, cpus, base);
  base.m.setups_s.insert(base.m.setups_s.end(), setups.begin(), setups.end());
  report.end_to_end = end_to_end(base.m, shape.segments, report.notes);
  report.attempted = warm + timed;
  report.notes.push_back("wire_bytes_per_step: " +
                         std::to_string(static_cast<double>(base.bytes_up + base.bytes_down) /
                                        timed) +
                         " B/step");
  measured(report);

  Verdict v;
  v.failed.assign(warm + timed, false);
  std::uint64_t qerr_steps = 0;
  for (std::size_t t = 0; t < base.qerr_by_step.size(); ++t) {
    if (base.qerr_by_step[t] != 0) {
      v.failed[t] = true;
      ++qerr_steps;
    }
  }
  v.checks.push_back({"quiescence errors", qerr_steps == 0,
                      std::to_string(qerr_steps) + " steps with errors"});

  // The standalone Simulator on the same RunSpec must reproduce the
  // networked run's model counters, step by step, and its F(T).
  topkmon::SimConfig cfg;
  cfg.k = spec.stream.k;
  cfg.epsilon = spec.protocol_epsilon;
  cfg.seed = spec.seed;
  topkmon::Simulator solo(cfg, topkmon::make_stream(spec.stream),
                          topkmon::make_protocol(spec.protocol));
  std::vector<StepRecord> solo_records;
  for (std::uint32_t t = 0; t < warm + timed; ++t) {
    solo.step();
    solo_records.push_back(record_of(solo));
  }
  v.check_steps(base.m.records, solo_records, "net vs standalone Simulator, per step");
  v.check_run(same_model_result(base.result, solo.result()) &&
                  base.output == solo.protocol().output(),
              "net vs standalone Simulator, RunResult + F(T)");

  if (opts.trace) {
    NetRun traced;
    run_net(spec, warm, timed, true, cpus, traced);
    v.check_steps(base.m.records, traced.m.records, "traced vs untraced, per step");
    v.check_run(same_net_run(base, traced),
                "traced vs untraced, RunResult + wire frames/bytes + F(T)");
    LayerInputs in;
    in.kind = Kind::kNet;
    in.first = warm;
    in.timed = timed;
    in.logs = {&traced.coord_log, &traced.phase_log, &traced.protocol_log};
    for (const SpanLog& l : traced.host_logs) in.logs.push_back(&l);
    in.warm = traced.m.warm;
    in.end = traced.m.end;
    in.steps_with_messages = traced.steps_with_messages;
    in.useful_steps = traced.useful_steps;
    in.untraced_steps_per_s = timed / base.m.wall_s;
    in.traced_steps_per_s = timed / traced.m.wall_s;
    in.net = &traced;
    report.per_layer = per_layer(in);
    write_spans(opts, in.logs, report);
  }
  finish(report, v);
  return report;
}

/// sim_churn and engine_bursty: the same closed loop over a different system.
Report run_inproc(const RunOptions& opts, Kind kind, const Shape& shape, std::uint32_t timed,
                  const std::function<void(const Report&)>& measured) {
  const std::uint32_t warm = shape.warmup;
  const std::uint64_t seed = opts.seed;
  const std::uint32_t total = warm + timed;
  const auto build = [&](bool strict, bool traced, std::size_t threads) -> InstanceFactory {
    if (kind == Kind::kSim) {
      return [=] { return std::make_unique<SimInstance>(seed, total, strict, traced); };
    }
    return [=] { return std::make_unique<EngineInstance>(seed, threads, strict, traced); };
  };

  Report report;
  Measured base;
  const std::unique_ptr<Instance> base_inst =
      measure(build(false, false, kEngineThreads), kSetups, warm, timed, false, base);
  report.end_to_end = end_to_end(base, shape.segments, report.notes);
  report.attempted = total;
  measured(report);

  Verdict v;
  v.failed.assign(total, false);
  LayerInputs in;
  Measured traced;
  std::unique_ptr<Instance> traced_inst;
  if (opts.trace) {
    traced_inst = measure(build(false, true, kEngineThreads), 1, warm, timed, true, traced);
    v.check_steps(base.records, traced.records, "traced vs untraced, per step");
    v.check_run(base.end == traced.end, "traced vs untraced, exact counters");
    in.kind = kind;
    in.first = warm;
    in.timed = timed;
    in.logs = traced_inst->logs();
    in.logs.push_back(&traced.loop);
    in.warm = traced.warm;
    in.end = traced.end;
    for (const TracedProtocol* p : traced_inst->protocols()) {
      in.steps_with_messages += p->steps_with_messages(warm);
      in.useful_steps += p->useful_steps(warm);
      double ns = 0.0;
      for (const Span& s : p->log().spans()) {
        if (s.step >= warm) ns += static_cast<double>(s.dur_ns);
      }
      in.protocol_ns_by_kind[static_cast<std::size_t>(p->kind())] += ns;
    }
    in.untraced_steps_per_s = timed / base.wall_s;
    in.traced_steps_per_s = timed / traced.wall_s;
    if (kind == Kind::kEngine) {  // single-worker baseline for engine.thread_speedup
      Measured single;
      measure(build(false, false, 1), 1, warm, timed, false, single);
      v.check_steps(base.records, single.records, "1 worker vs 3 workers, per step");
      v.check_run(base.end == single.end, "1 worker vs 3 workers, exact counters");
      in.single_worker_steps_per_s = timed / single.wall_s;
    }
  }

  // Untimed verification: the same seed under strict mode, which checks
  // every step against the brute-force Oracle (and aborts on a violation).
  Measured strict;
  measure(build(true, false, kEngineThreads), 1, total, 0, false, strict);
  v.check_steps(base.records, strict.records, "strict Oracle-checked pass, per step");
  v.check_run(base.end == strict.end, "strict Oracle-checked pass, exact counters");

  if (opts.trace) {
    report.per_layer = per_layer(in);
    write_spans(opts, in.logs, report);
  }
  finish(report, v);
  return report;
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Shape& s : kShapes) names.emplace_back(s.name);
  return names;
}

Report run_workload(const RunOptions& opts,
                    const std::function<void(const Report&)>& measured) {
  for (const Shape& s : kShapes) {
    if (opts.workload != s.name) continue;
    const auto timed =
        static_cast<std::uint32_t>(std::max(1.0, std::round(s.rate * opts.seconds)));
    const std::string w = s.name;
    if (w == "net_quiet") return run_net_quiet(opts, s, timed, measured);
    return run_inproc(opts, w == "sim_churn" ? Kind::kSim : Kind::kEngine, s, timed, measured);
  }
  throw std::runtime_error("unknown workload: " + opts.workload);
}

}  // namespace perfbench
