#include "net/coordinator.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "net/node_host.hpp"
#include "protocols/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace topkmon::net {

std::uint32_t shard_lo(std::size_t n, std::uint32_t hosts, std::uint32_t host) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(n) * host / hosts);
}

Rng coordinator_link_loss_rng(const RunSpec& spec, std::uint32_t host) {
  return Rng::derive(spec.faults.seed, 0xC0020000u + host);
}

NetCoordinator::NetCoordinator(RunSpec spec, std::vector<std::unique_ptr<Link>> links)
    : spec_(std::move(spec)), links_(std::move(links)) {
  const std::string bad = validate_run_spec(spec_);
  if (!bad.empty()) throw std::runtime_error("invalid run spec: " + bad);
  if (links_.empty()) throw std::runtime_error("coordinator needs at least one link");
  if (links_.size() > spec_.stream.n) {
    throw std::runtime_error("more node-hosts (" + std::to_string(links_.size()) +
                             ") than nodes (" + std::to_string(spec_.stream.n) +
                             "): shards would be empty");
  }

  SimConfig cfg;
  cfg.k = spec_.stream.k;
  cfg.epsilon = spec_.protocol_epsilon;
  cfg.seed = spec_.seed;
  cfg.window = spec_.window;
  cfg.threshold = spec_.threshold;
  cfg.faults = make_fleet_schedule(spec_.faults, spec_.stream.n);
  sim_ = std::make_unique<Simulator>(cfg, spec_.stream.n,
                                     make_protocol(spec_.protocol));
  // Window only: value degradation runs on the node-hosts' pipelines.
  window_ = std::make_unique<FleetPipeline>(spec_.stream.n, nullptr, spec_.window);
  sim_->context().enable_filter_tracking();
  assembled_.assign(spec_.stream.n, 0);
}

NetCoordinator::~NetCoordinator() {
  for (auto& link : links_) link->close();
}

void NetCoordinator::attach_telemetry(telemetry::TelemetrySink* sink) {
  sim_->attach_telemetry(sink);
  telemetry_ = sink;
  stats_ids_ = register_stats_metrics(sink->registry());
}

void NetCoordinator::handshake() {
  link_of_host_.assign(links_.size(), nullptr);
  const std::uint32_t hosts = static_cast<std::uint32_t>(links_.size());
  for (auto& link : links_) {
    std::vector<std::uint8_t> buf;
    if (!link->recv(buf)) throw std::runtime_error("node-host left before hello");
    const HelloMsg hello = decode_hello(parse_frame(buf));
    if (hello.host_index >= hosts) {
      throw std::runtime_error("hello from host " + std::to_string(hello.host_index) +
                               " of " + std::to_string(hosts));
    }
    if (hello.host_count != hosts) {
      throw std::runtime_error("host " + std::to_string(hello.host_index) +
                               " expects " + std::to_string(hello.host_count) +
                               " hosts, coordinator has " + std::to_string(hosts));
    }
    if (link_of_host_[hello.host_index] != nullptr) {
      throw std::runtime_error("duplicate hello for host " +
                               std::to_string(hello.host_index));
    }
    link_of_host_[hello.host_index] = link.get();
  }
  for (std::uint32_t h = 0; h < hosts; ++h) {
    ConfigMsg cfg;
    cfg.spec = spec_;
    cfg.shard_lo = shard_lo(spec_.stream.n, hosts, h);
    cfg.shard_hi = shard_lo(spec_.stream.n, hosts, h + 1);
    if (!link_of_host_[h]->send(encode(cfg))) {
      throw std::runtime_error("host " + std::to_string(h) + " unreachable (config)");
    }
  }
}

void NetCoordinator::step(TimeStep t) {
  const std::uint32_t hosts = static_cast<std::uint32_t>(links_.size());
  const std::vector<std::uint8_t> begin = encode(StepBeginMsg{t});
  for (std::uint32_t h = 0; h < hosts; ++h) {
    if (!link_of_host_[h]->send(begin)) {
      throw std::runtime_error("host " + std::to_string(h) + " unreachable at t=" +
                               std::to_string(t));
    }
  }

  StepFacts facts;
  std::vector<std::uint8_t> buf;
  for (std::uint32_t h = 0; h < hosts; ++h) {
    if (!link_of_host_[h]->recv(buf)) {
      throw std::runtime_error("host " + std::to_string(h) + " vanished at t=" +
                               std::to_string(t));
    }
    const ShardValuesMsg m = decode_shard_values(parse_frame(buf));
    const std::uint32_t lo = shard_lo(spec_.stream.n, hosts, h);
    const std::uint32_t hi = shard_lo(spec_.stream.n, hosts, h + 1);
    if (m.t != t || m.lo != lo || m.values.size() != hi - lo) {
      throw std::runtime_error("bad shard report from host " + std::to_string(h) +
                               " at t=" + std::to_string(t));
    }
    std::copy(m.values.begin(), m.values.end(), assembled_.begin() + lo);
    // The node-hosts' stale observations feed the same counter the standalone
    // injector does, keeping RunResult::stale_reads bit-identical.
    facts.stale_reads += m.stale;
  }

  // A link that came back from an outage during this step's exchange drives
  // the protocol's membership-recovery hook — reconnections cost a recovery
  // round exactly like scripted churn.
  for (auto& link : links_) {
    if (link->take_reconnected()) facts.recovery = true;
  }
  const ValueVector& monitored = window_->step(t, assembled_, sim_->profiler());
  facts.window_expirations = window_->window_expirations();
  sim_->step_on(monitored, facts);

  // Ship the step's filter deltas, shard by shard. Always send — an empty
  // update is the node-host's signal that the control phase is over.
  const std::vector<NodeId>& dirty = sim_->context().dirty_filters();
  const NodeRange nodes = sim_->context().nodes();
  for (std::uint32_t h = 0; h < hosts; ++h) {
    const std::uint32_t lo = shard_lo(spec_.stream.n, hosts, h);
    const std::uint32_t hi = shard_lo(spec_.stream.n, hosts, h + 1);
    FilterUpdateMsg update;
    update.t = t;
    for (const NodeId id : dirty) {
      if (id >= lo && id < hi) {
        const Filter f = nodes[id].filter();
        update.filters.push_back(FilterEntry{id, f.lo, f.hi});
      }
    }
    if (!link_of_host_[h]->send(encode(update))) {
      throw std::runtime_error("host " + std::to_string(h) +
                               " unreachable (filter update)");
    }
  }
  for (std::uint32_t h = 0; h < hosts; ++h) {
    if (!link_of_host_[h]->recv(buf)) {
      throw std::runtime_error("host " + std::to_string(h) + " vanished (step ack)");
    }
    const StepAckMsg ack = decode_step_ack(parse_frame(buf));
    if (ack.t != t) {
      throw std::runtime_error("stale step ack from host " + std::to_string(h));
    }
    quiescence_errors_ += ack.quiescence_errors;
  }
  if (telemetry_ != nullptr) publish_net_telemetry();
}

RunResult NetCoordinator::run() {
  try {
    handshake();
    for (TimeStep t = 0; t < spec_.steps; ++t) {
      step(t);
    }
  } catch (...) {
    for (auto& link : links_) link->close();
    throw;
  }
  RunResult result = sim_->result();
  result.net = net_total();
  // The final telemetry publish happens BEFORE the shutdown frames go out:
  // those frames sit outside the counters they deliver (by construction), so
  // the exported net.* matches the returned RunResult exactly.
  if (telemetry_ != nullptr) publish_net_telemetry();
  const ShutdownMsg bye{static_cast<const StatsSnapshot&>(result)};
  const std::vector<std::uint8_t> frame = encode(bye);
  for (auto& link : links_) {
    link->send(frame);
    link->close();
  }
  return result;
}

const OutputSet& NetCoordinator::output() const { return sim_->protocol().output(); }

QueryAnswers NetCoordinator::answers() const {
  QueryAnswers a;
  const MonitoringProtocol& protocol = sim_->protocol();
  if (const QueryCapabilities* q = capability_for(protocol, QueryKind::kKSelect)) {
    const std::size_t jmax = std::min(q->kselect_max_rank(), sim_->config().k);
    for (std::size_t j = 1; j <= jmax; ++j) a.kselect_estimates.push_back(q->kselect(j));
  }
  if (const QueryCapabilities* q = capability_for(protocol, QueryKind::kCountDistinct)) {
    a.distinct_count = q->distinct_count();
  }
  if (const QueryCapabilities* q = capability_for(protocol, QueryKind::kThreshold)) {
    a.threshold_above = q->above_count();
  }
  return a;
}

const NetChannelStats& NetCoordinator::link_stats(std::uint32_t host) const {
  return link_of_host_.at(host)->stats();
}

NetChannelStats NetCoordinator::net_total() const {
  NetChannelStats total;
  for (const auto& link : links_) total += link->stats();
  return total;
}

void NetCoordinator::publish_net_telemetry() {
  publish_net_stats(telemetry_->registry(), stats_ids_, net_total());
}

// ---------------------------------------------------------------- inproc

InprocNetReport run_networked_inproc(const RunSpec& spec,
                                     const InprocNetOptions& opts) {
  const std::uint32_t hosts = opts.hosts;
  if (hosts == 0) throw std::runtime_error("run_networked_inproc: hosts must be >= 1");
  const double loss = opts.link_loss >= 0.0 ? opts.link_loss : spec.faults.loss;

  std::vector<std::unique_ptr<Link>> coord_links;
  std::vector<std::unique_ptr<Link>> node_links;
  coord_links.reserve(hosts);
  node_links.reserve(hosts);
  for (std::uint32_t h = 0; h < hosts; ++h) {
    TransportPair pair = make_loopback_pair();
    auto coord_link = std::make_unique<Link>(std::move(pair.a));
    auto node_link = std::make_unique<Link>(std::move(pair.b));
    if (loss > 0.0) {
      coord_link->set_loss(loss, coordinator_link_loss_rng(spec, h));
      node_link->set_loss(loss, Rng::derive(spec.faults.seed, 0x10DE0000u + h));
    }
    for (const InprocNetOptions::ScriptedOutage& o : opts.outages) {
      if (o.host == h) {
        (o.coordinator_side ? coord_link : node_link)->add_outage(o.outage);
      }
    }
    coord_links.push_back(std::move(coord_link));
    node_links.push_back(std::move(node_link));
  }

  NetCoordinator coordinator(spec, std::move(coord_links));
  if (opts.sink != nullptr) coordinator.attach_telemetry(opts.sink);

  std::vector<std::unique_ptr<NodeHost>> node_hosts;
  node_hosts.reserve(hosts);
  for (std::uint32_t h = 0; h < hosts; ++h) {
    node_hosts.push_back(
        std::make_unique<NodeHost>(std::move(node_links[h]), h, hosts));
  }
  std::vector<int> exits(hosts, -1);
  std::vector<std::thread> threads;
  threads.reserve(hosts);
  for (std::uint32_t h = 0; h < hosts; ++h) {
    threads.emplace_back([&exits, &node_hosts, h] { exits[h] = node_hosts[h]->run(); });
  }

  InprocNetReport report;
  try {
    report.run = coordinator.run();
  } catch (...) {
    // run() closed the links; the hosts' recv loops exit on their own.
    for (std::thread& th : threads) th.join();
    throw;
  }
  for (std::thread& th : threads) th.join();
  report.output = coordinator.output();
  report.quiescence_errors = coordinator.quiescence_errors();
  report.host_exit = std::move(exits);
  static_cast<QueryAnswers&>(report) = coordinator.answers();
  return report;
}

}  // namespace topkmon::net
