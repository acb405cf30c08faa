#include "net/node_host.hpp"

#include <span>
#include <vector>

#include "model/filter.hpp"
#include "model/fleet_pipeline.hpp"
#include "streams/registry.hpp"
#include "util/assert.hpp"
#include "util/simd.hpp"

namespace topkmon::net {

/// The deterministic full-fleet workload machinery one host rebuilds from
/// the Config message: the same FleetPipeline, on the same seeds, as the
/// standalone Simulator, so the values a host reports are bit-identical to
/// what an in-process run would produce.
struct NodeHost::State {
  RunSpec spec;
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;

  FleetPipeline pipeline;  ///< at step expected_t; once reported, at the next
  // The shard's filters as two bound arrays, by node − lo: the layout
  // simd::violation_mask streams over.
  std::vector<double> filter_lo;
  std::vector<double> filter_hi;
  std::vector<std::uint8_t> violating;  ///< violation_mask's per-node output
  OutputSet empty_output;  ///< the AdversaryView target (non-adaptive kinds)
  TimeStep expected_t = 0;
  bool reported = false;  ///< ShardValues(expected_t) sent, FilterUpdate due
  std::vector<std::uint8_t> report;  ///< the ShardValues(expected_t) frame
  ValueVector reported_monitored;  ///< step expected_t's monitored shard slice

  State(const ConfigMsg& cfg)
      : spec(cfg.spec),
        lo(cfg.shard_lo),
        hi(cfg.shard_hi),
        pipeline(make_stream(cfg.spec.stream), cfg.spec.seed,
                 make_fleet_schedule(cfg.spec.faults, cfg.spec.stream.n),
                 cfg.spec.window),
        filter_lo(cfg.shard_hi - cfg.shard_lo, Filter::all().lo),
        filter_hi(cfg.shard_hi - cfg.shard_lo, Filter::all().hi),
        violating(cfg.shard_hi - cfg.shard_lo) {}

  /// Runs the full-fleet pipeline for step t — the same RNG stream as the
  /// standalone Simulator. The AdversaryView is empty: adaptive kinds are
  /// rejected at spec validation, and every other generator ignores it.
  void generate(TimeStep t) {
    const AdversaryView view{{}, &empty_output, spec.stream.k, spec.stream.epsilon};
    pipeline.step(t, view, nullptr);
  }

  /// Shard nodes whose value in `shard` (indexed by node − lo) lies outside
  /// its filter, in one vector pass: bit-identical to counting
  /// Filter::check != kNone node by node, NaN and ±∞ bounds included.
  std::uint64_t count_violations(const Value* shard) {
    return simd::violation_mask(shard, filter_lo.data(), filter_hi.data(),
                                violating.size(), violating.data());
  }

  /// Frames ShardValues(expected_t) ahead of its StepBegin: the pipeline
  /// already holds the step, and the filters installed at expected_t − 1
  /// are final once that step was acked. The report carries the effective
  /// values, which the coordinator windows itself, written straight from
  /// the pipeline's slice; violations are counted on the monitored
  /// (windowed) values. Step expected_t's monitored slice is kept for the
  /// quiescence check, since generating ahead overwrites the pipeline.
  void prepare_report() {
    const std::size_t width = hi - lo;
    const Value* monitored = pipeline.monitored().data() + lo;
    // The violation pass converts u64 lanes to doubles, exact only up to
    // kMaxObservableValue; the quiescence pass reuses these same values.
    TOPKMON_ASSERT_MSG(simd::max_value(monitored, width) <= kMaxObservableValue,
                       "generator exceeded kMaxObservableValue");
    ShardValuesView msg;
    msg.t = expected_t;
    msg.lo = lo;
    msg.values = std::span<const Value>(pipeline.effective()).subspan(lo, width);
    msg.stale = pipeline.stale_reads(lo, hi);
    msg.violations = count_violations(monitored);
    report = encode(msg);
    reported_monitored.assign(monitored, monitored + width);
  }
};

NodeHost::NodeHost(std::unique_ptr<Link> link, std::uint32_t host_index,
                   std::uint32_t host_count)
    : link_(std::move(link)), host_index_(host_index), host_count_(host_count) {}

NodeHost::~NodeHost() = default;

int NodeHost::fail(const std::string& why) {
  error_ = why;
  link_->close();
  return 1;
}

int NodeHost::run() {
  if (!link_->send(encode(HelloMsg{host_index_, host_count_}))) {
    return fail("coordinator unreachable (hello)");
  }
  std::vector<std::uint8_t> buf;
  if (!link_->recv(buf)) return fail("coordinator closed before config");
  try {
    const Frame f = parse_frame(buf);
    const ConfigMsg cfg = decode_config(f);
    const std::string bad = validate_run_spec(cfg.spec);
    if (!bad.empty()) return fail("invalid run spec: " + bad);
    if (cfg.shard_lo >= cfg.shard_hi || cfg.shard_hi > cfg.spec.stream.n) {
      return fail("invalid shard assignment [" + std::to_string(cfg.shard_lo) +
                  ", " + std::to_string(cfg.shard_hi) + ")");
    }
    state_ = std::make_unique<State>(cfg);
    state_->generate(0);
    state_->prepare_report();
  } catch (const std::exception& e) {
    return fail(std::string("config rejected: ") + e.what());
  }

  for (;;) {
    if (!link_->recv(buf)) return fail("coordinator vanished mid-run");
    try {
      const Frame f = parse_frame(buf);
      switch (f.type) {
        case MsgType::kStepBegin: {
          const StepBeginMsg m = decode_step_begin(f);
          if (!handle_step_begin(m.t)) return 1;
          break;
        }
        case MsgType::kFilterUpdate: {
          if (!handle_filter_update(decode_filter_update(f))) return 1;
          break;
        }
        case MsgType::kShutdown: {
          final_stats_ = decode_shutdown(f).stats;
          link_->close();
          return 0;
        }
        default:
          return fail("unexpected frame: " + to_string(f.type));
      }
    } catch (const std::exception& e) {
      return fail(std::string("frame error: ") + e.what());
    }
  }
}

bool NodeHost::handle_step_begin(TimeStep t) {
  State& s = *state_;
  if (t != s.expected_t || s.reported || t >= s.spec.steps) {
    fail("step out of order: got t=" + std::to_string(t) + ", expected " +
         std::to_string(s.expected_t));
    return false;
  }
  if (!link_->send(s.report)) {
    fail("coordinator unreachable (shard values)");
    return false;
  }
  // Generate ahead: run step t + 1 while the coordinator runs t's control
  // phase. Hosts are non-adaptive, so nothing the coordinator sends can
  // change t + 1.
  s.reported = true;
  if (t + 1 < s.spec.steps) s.generate(t + 1);
  return true;
}

bool NodeHost::handle_filter_update(const FilterUpdateMsg& m) {
  State& s = *state_;
  if (m.t != s.expected_t || !s.reported) {
    fail("filter update out of order at t=" + std::to_string(m.t));
    return false;
  }
  for (const FilterEntry& e : m.filters) {
    if (e.node < s.lo || e.node >= s.hi) {
      fail("filter for node " + std::to_string(e.node) + " outside shard");
      return false;
    }
    s.filter_lo[e.node - s.lo] = e.lo;
    s.filter_hi[e.node - s.lo] = e.hi;
  }
  // Quiescence: after the step's control phase every shard node's monitored
  // value must sit inside its filter (the protocols' per-step contract).
  StepAckMsg ack;
  ack.t = m.t;
  ack.quiescence_errors = s.count_violations(s.reported_monitored.data());
  quiescence_errors_ += ack.quiescence_errors;
  s.reported = false;
  ++s.expected_t;
  if (!link_->send(encode(ack))) {
    fail("coordinator unreachable (step ack)");
    return false;
  }
  // Report ahead: frame the next step's report while the coordinator
  // collects the acks and sends StepBegin.
  if (s.expected_t < s.spec.steps) s.prepare_report();
  return true;
}

}  // namespace topkmon::net
