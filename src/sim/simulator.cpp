#include "sim/simulator.hpp"

#include <algorithm>

#include "model/oracle.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace topkmon {

Simulator::Simulator(SimConfig cfg, std::unique_ptr<StreamGenerator> gen,
                     std::unique_ptr<MonitoringProtocol> protocol)
    : Simulator(cfg, gen ? gen->n() : 0, std::move(protocol)) {
  pipeline_ = std::make_unique<FleetPipeline>(std::move(gen), cfg_.seed,
                                              cfg_.faults, cfg_.window);
}

Simulator::Simulator(SimConfig cfg, std::size_t n,
                     std::unique_ptr<MonitoringProtocol> protocol)
    : cfg_(cfg),
      protocol_(std::move(protocol)),
      ctx_(SimParams{n, cfg.k, cfg.epsilon, cfg.threshold}, cfg.seed),
      fleet_(n) {
  TOPKMON_ASSERT(protocol_ != nullptr);
  if (cfg_.faults) {
    TOPKMON_ASSERT_MSG(cfg_.faults->n() == n, "fault schedule sized for wrong fleet");
    // p = 0 arms nothing: count() stays draw-free and bit-identical.
    ctx_.stats().enable_loss(cfg_.faults->loss(),
                             Rng::derive(cfg_.seed, /*stream_id=*/0x1055));
  }
}

void Simulator::step() {
  TOPKMON_ASSERT_MSG(pipeline_ != nullptr,
                     "Simulator without generator must be driven via step_with()");
  const AdversaryView view{ctx_.nodes(), &protocol_->output(), cfg_.k, cfg_.epsilon};
  step_on_pipeline(pipeline_->step(next_t_, view, profiler_));
}

void Simulator::step_with(const ValueVector& values) {
  if (!pipeline_) {
    pipeline_ = std::make_unique<FleetPipeline>(ctx_.n(), cfg_.faults, cfg_.window);
  }
  step_on_pipeline(pipeline_->step(next_t_, values, profiler_));
}

void Simulator::step_on_pipeline(const ValueVector& monitored) {
  StepFacts facts;
  facts.stale_reads = pipeline_->stale_reads();
  facts.window_expirations = pipeline_->window_expirations();
  step_on(monitored, facts);
}

void Simulator::step_on(const ValueVector& monitored, const StepFacts& facts) {
  {
    TOPKMON_PHASE_SCOPE(profiler_, telemetry::Phase::kAdvanceTime);
    ctx_.stats().begin_step();
    ctx_.advance_time(monitored);
  }
  ctx_.stats().add_stale_reads(facts.stale_reads);
  window_expirations_ += facts.window_expirations;

  {
    // Protocol rounds (nested collect_violations time is additionally
    // attributed to kViolationCollect — shares are of inclusive time).
    TOPKMON_PHASE_SCOPE(profiler_, telemetry::Phase::kProtocol);
    if (next_t_ == 0) {
      protocol_->start(ctx_);  // start() already (re)validates everything
    } else if ((cfg_.faults && cfg_.faults->membership_changed_at(next_t_)) ||
               facts.recovery) {
      protocol_->on_membership_change(ctx_);
      ctx_.stats().add_recovery();
    } else if (facts.window_expirations > 0) {
      protocol_->on_window_expiry(ctx_);
    } else {
      protocol_->on_step(ctx_);
    }
  }

  std::size_t sigma;
  if (facts.sigma) {
    sigma = *facts.sigma;
  } else {
    // Incremental order maintenance: quiescent steps cost one diff pass and
    // two binary searches instead of an O(n log n) sort with allocations.
    // σ(t) is a pure function of the values, so the order keeps no node
    // identities — the same class serves every engine snapshot view.
    TopKOrder& order = fleet_.order();
    {
      TOPKMON_PHASE_SCOPE(profiler_, telemetry::Phase::kOrderUpdate);
      order.update(monitored);
    }
    TOPKMON_PHASE_SCOPE(profiler_, telemetry::Phase::kSigma);
    sigma = order.sigma(cfg_.k, cfg_.epsilon);
  }
  max_sigma_ = std::max(max_sigma_, sigma);
  if (cfg_.record_history) {
    // What the algorithm (and the offline OPT it is compared against) saw.
    history_.push_back(monitored);
  }
  if (cfg_.strict) {
    TOPKMON_PHASE_SCOPE(profiler_, telemetry::Phase::kStrictValidate);
    validate_strict(monitored);
  }
  if (telemetry_ != nullptr) {
    publish_telemetry(sigma);
  }
  ++next_t_;
}

void Simulator::attach_telemetry(telemetry::TelemetrySink* sink) {
  TOPKMON_ASSERT(sink != nullptr);
  TOPKMON_ASSERT_MSG(next_t_ == 0, "telemetry must attach before the first step");
  telemetry_ = sink;
  set_profiler(&sink->profiler());

  telemetry::MetricsRegistry& reg = sink->registry();
  ids_.stats = register_stats_metrics(reg);
  ids_.order_repairs = reg.counter("order.repairs");
  ids_.order_rebuilds = reg.counter("order.rebuilds");
  ids_.step = reg.gauge("sim.step");
  ids_.sigma = reg.gauge("sim.sigma");
  ids_.violating = reg.gauge("sim.violating");
  ids_.messages_per_step = reg.histogram("comm.messages_per_step");

  // Default timeseries channels — unless the owner already chose its own.
  if (sink->timeseries().channel_count() == 0) {
    sink->timeseries().add_channel("comm.messages", ids_.stats.messages, reg);
    sink->timeseries().add_channel("comm.rounds", ids_.stats.rounds, reg);
    sink->timeseries().add_channel("sim.sigma", ids_.sigma, reg);
    sink->timeseries().add_channel("sim.violating", ids_.violating, reg);
  }
}

void Simulator::publish_telemetry(std::size_t sigma) {
  // Mirrors the existing deterministic counters into the registry by relaxed
  // stores — no RNG draw, no message, no allocation — so attaching telemetry
  // cannot perturb results.
  telemetry::MetricsRegistry& reg = telemetry_->registry();
  const CommStats& s = ctx_.stats();
  publish_stats(reg, ids_.stats, StatsSnapshot::from(s, window_expirations_));
  if (const TopKOrder* order = fleet_.order_if_ready()) {
    reg.set(ids_.order_repairs, order->repairs());
    reg.set(ids_.order_rebuilds, order->rebuilds());
  }
  reg.set(ids_.step, static_cast<std::uint64_t>(next_t_));
  reg.set(ids_.sigma, sigma);
  reg.set(ids_.violating, ctx_.violating_count());
  reg.observe(ids_.messages_per_step, s.messages_this_step());
  telemetry_->timeseries().sample(reg, static_cast<std::uint64_t>(next_t_));
}

void Simulator::validate_strict(const ValueVector& values) {
  // Dispatch on the protocol's advertised QueryCapabilities: each kind it
  // serves is checked against its oracle contract. Protocols without
  // capabilities serve exactly top-k positions, the paper's query.
  const QueryCapabilities* caps = protocol_->capabilities();
  const bool topk = serves_topk(*protocol_);
  if (topk) {
    const auto& out = protocol_->output();
    const std::string why = Oracle::explain_invalid(values, cfg_.k, cfg_.epsilon, out);
    TOPKMON_ASSERT_MSG(why.empty(), ("output invalid at t=" + std::to_string(next_t_) +
                                     " [" + std::string(protocol_->name()) + "]: " + why)
                                        .c_str());
  }

  // The filter snapshot is captured lazily — only here, where the validator
  // actually consumes it — and into a buffer reused across steps, not a
  // fresh vector per step (n is fixed, so only the first call allocates).
  std::vector<Filter>& filters = strict_filters_;
  const NodeRange nodes = ctx_.nodes();
  filters.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    filters[i] = nodes[i].filter();
  }
  if (topk) {
    // Observation 2.2 ties filter validity to the top-k output F(t);
    // non-top-k kinds state their own filter discipline (quiescence below).
    TOPKMON_ASSERT_MSG(
        filters_valid(filters, protocol_->output(), cfg_.epsilon),
        ("filter set invalid (Obs. 2.2) at t=" + std::to_string(next_t_)).c_str());
  }
  TOPKMON_ASSERT_MSG(
      all_within(filters, std::span<const Value>(values.data(), values.size())),
      ("protocol left unresolved filter violations at t=" + std::to_string(next_t_))
          .c_str());

  // Protocols that additionally serve k-select must keep every supported
  // rank's estimate inside the oracle's ε-neighborhood.
  if (caps != nullptr && caps->supports(QueryKind::kKSelect)) {
    const std::size_t jmax = std::min(caps->kselect_max_rank(), cfg_.k);
    for (std::size_t j = 1; j <= jmax; ++j) {
      const std::string bad =
          Oracle::explain_kselect_invalid(values, j, cfg_.epsilon, caps->kselect(j));
      TOPKMON_ASSERT_MSG(
          bad.empty(), ("k-select estimate invalid at t=" + std::to_string(next_t_) +
                        " j=" + std::to_string(j) + " [" +
                        std::string(protocol_->name()) + "]: " + bad)
                           .c_str());
    }
  }

  if (caps != nullptr && caps->supports(QueryKind::kCountDistinct)) {
    if (!strict_ladder_ready_) {
      strict_ladder_.reset(cfg_.epsilon);  // ε is fixed per run; build once
      strict_ladder_ready_ = true;
    }
    const std::uint64_t expect = Oracle::distinct_count(
        std::span<const Value>(values.data(), values.size()), strict_ladder_);
    const std::uint64_t got = caps->distinct_count();
    TOPKMON_ASSERT_MSG(
        got == expect,
        ("count-distinct answer wrong at t=" + std::to_string(next_t_) + " [" +
         std::string(protocol_->name()) + "]: got " + std::to_string(got) +
         ", oracle says " + std::to_string(expect))
            .c_str());
  }

  if (caps != nullptr && caps->supports(QueryKind::kThreshold)) {
    const std::uint64_t expect = Oracle::count_above(
        std::span<const Value>(values.data(), values.size()), cfg_.threshold);
    const std::uint64_t got = caps->above_count();
    TOPKMON_ASSERT_MSG(
        got == expect && caps->alert_active() == (expect > 0),
        ("threshold answer wrong at t=" + std::to_string(next_t_) + " [" +
         std::string(protocol_->name()) + "]: got " + std::to_string(got) +
         " above T=" + std::to_string(cfg_.threshold) + ", oracle says " +
         std::to_string(expect))
            .c_str());
  }
}

RunResult Simulator::run(TimeStep steps) {
  for (TimeStep i = 0; i < steps; ++i) {
    step();
  }
  return result();
}

RunResult Simulator::result() const {
  RunResult r;
  const auto& s = ctx_.stats();
  static_cast<StatsSnapshot&>(r) = StatsSnapshot::from(s, window_expirations_);
  r.steps = s.steps();
  r.max_rounds_per_step = s.max_rounds_per_step();
  r.max_sigma = max_sigma_;
  r.messages_per_step =
      r.steps == 0 ? 0.0
                   : static_cast<double>(r.messages) / static_cast<double>(r.steps);
  return r;
}

}  // namespace topkmon
