#include "trace.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <mutex>
#include <set>
#include <utility>

#include "protocols/registry.hpp"

namespace perfbench {

using topkmon::QueryKind;

std::uint64_t now_ns() { return topkmon::telemetry::steady_now_ns(); }

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kStep: return "step";
    case Layer::kStreams: return "streams.step";
    case Layer::kFaults: return "faults.inject";
    case Layer::kWindowMerge: return "model.window_merge";
    case Layer::kAdvanceTime: return "sim.advance_time";
    case Layer::kProtocol: return "protocols.step";
    case Layer::kRecovery: return "protocols.recovery";
    case Layer::kViolationCollect: return "sim.violation_collect";
    case Layer::kOrderUpdate: return "model.order_update";
    case Layer::kSigma: return "model.sigma";
    case Layer::kSimStep: return "sim.step";
    case Layer::kSnapshot: return "engine.snapshot";
    case Layer::kShard: return "engine.shard";
    case Layer::kCoordSend: return "net.coord_send";
    case Layer::kCoordRecv: return "net.coord_recv_wait";
    case Layer::kHostWait: return "net.host_wait";
    case Layer::kHostBusy: return "net.host_busy";
    case Layer::kCount: break;
  }
  return "?";
}

void PhaseTap::flush(SpanLog& log, std::uint32_t step, std::uint16_t lane,
                     std::span<const PhaseMap> map) {
  for (const PhaseMap& m : map) {
    const auto i = static_cast<std::size_t>(m.phase);
    const std::uint64_t total = prof_->total_ns(m.phase);
    if (total != seen_[i]) log.add(step, m.layer, m.parent, lane, kNoStart, total - seen_[i]);
    seen_[i] = total;
  }
}

// ---------------------------------------------------------------- streams

void TracedStream::init(topkmon::ValueVector& out, topkmon::Rng& rng) {
  const std::uint64_t t0 = now_ns();
  inner_->init(out, rng);
  log_->add(0, Layer::kStreams, Layer::kStep, 0, t0, now_ns() - t0);
}

void TracedStream::step(topkmon::TimeStep t, const topkmon::AdversaryView& view,
                        topkmon::ValueVector& out, topkmon::Rng& rng) {
  const std::uint64_t t0 = now_ns();
  inner_->step(t, view, out, rng);
  log_->add(static_cast<std::uint32_t>(t), Layer::kStreams, Layer::kStep, 0, t0,
            now_ns() - t0);
}

// ---------------------------------------------------------------- protocols

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

QueryKind primary_kind(const topkmon::MonitoringProtocol& p) {
  for (const QueryKind k : {QueryKind::kKSelect, QueryKind::kCountDistinct,
                            QueryKind::kThreshold}) {
    if (topkmon::capability_for(p, k) != nullptr) return k;
  }
  return QueryKind::kTopK;
}

}  // namespace

std::uint64_t answer_fingerprint(const topkmon::MonitoringProtocol& p, std::size_t k) {
  std::uint64_t h = 0xC0FFEE;
  for (const topkmon::NodeId id : p.output()) h = mix(h, id);
  if (const auto* q = topkmon::capability_for(p, QueryKind::kKSelect)) {
    const std::size_t jmax = std::min(q->kselect_max_rank(), k);
    for (std::size_t j = 1; j <= jmax; ++j) h = mix(h, q->kselect(j));
  }
  if (const auto* q = topkmon::capability_for(p, QueryKind::kCountDistinct)) {
    h = mix(h, q->distinct_count());
  }
  if (const auto* q = topkmon::capability_for(p, QueryKind::kThreshold)) {
    h = mix(h, q->above_count());
  }
  return h;
}

TracedProtocol::TracedProtocol(std::unique_ptr<topkmon::MonitoringProtocol> inner)
    : inner_(std::move(inner)), kind_(primary_kind(*inner_)) {}

template <class Fn>
void TracedProtocol::timed(topkmon::SimContext& ctx, Layer layer, Fn&& fn) {
  const std::size_t k = ctx.k();
  const std::uint64_t before = answer_fingerprint(*inner_, k);
  const std::uint64_t t0 = now_ns();
  fn();
  const std::uint64_t t1 = now_ns();
  const auto step = static_cast<std::uint32_t>(ctx.time());
  log_.add(step, layer, parent_, lane_, t0, t1 - t0);
  outcomes_.push_back(Outcome{step, ctx.stats().messages_this_step() > 0,
                              answer_fingerprint(*inner_, k) != before});
}

void TracedProtocol::start(topkmon::SimContext& ctx) {
  timed(ctx, Layer::kProtocol, [&] { inner_->start(ctx); });
}
void TracedProtocol::on_step(topkmon::SimContext& ctx) {
  timed(ctx, Layer::kProtocol, [&] { inner_->on_step(ctx); });
}
void TracedProtocol::on_membership_change(topkmon::SimContext& ctx) {
  timed(ctx, Layer::kRecovery, [&] { inner_->on_membership_change(ctx); });
}
void TracedProtocol::on_window_expiry(topkmon::SimContext& ctx) {
  timed(ctx, Layer::kProtocol, [&] { inner_->on_window_expiry(ctx); });
}

std::uint64_t TracedProtocol::steps_with_messages(std::uint32_t first_step) const {
  return static_cast<std::uint64_t>(
      std::count_if(outcomes_.begin(), outcomes_.end(), [&](const Outcome& o) {
        return o.step >= first_step && o.messaged;
      }));
}

std::uint64_t TracedProtocol::useful_steps(std::uint32_t first_step) const {
  return static_cast<std::uint64_t>(
      std::count_if(outcomes_.begin(), outcomes_.end(), [&](const Outcome& o) {
        return o.step >= first_step && o.messaged && o.changed;
      }));
}

namespace {

struct TracedRegistry {
  std::mutex mu;
  std::set<std::string> registered;   ///< base names with a traced twin
  std::vector<TracedProtocol*> made;  ///< built since the last take
};

TracedRegistry& traced_registry() {
  static TracedRegistry r;
  return r;
}

}  // namespace

std::string traced_protocol_name(const std::string& base) {
  std::string name = base;
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  TracedRegistry& r = traced_registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  if (r.registered.insert(base).second) {
    topkmon::register_protocol(name, [base] {
      auto p = std::make_unique<TracedProtocol>(topkmon::make_protocol(base));
      TracedRegistry& reg = traced_registry();
      const std::lock_guard<std::mutex> made_lock(reg.mu);
      reg.made.push_back(p.get());
      return p;
    });
  }
  return name;
}

std::vector<TracedProtocol*> take_traced_protocols() {
  TracedRegistry& r = traced_registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  return std::exchange(r.made, {});
}

// ---------------------------------------------------------------- transport

bool TimedTransport::send(const std::vector<std::uint8_t>& frame) {
  const std::uint64_t t0 = now_ns();
  const bool ok = inner_->send(frame);
  const std::uint64_t t1 = now_ns();
  if (ok) obs_->on_send(frame, t0, t1);
  return ok;
}

bool TimedTransport::recv(std::vector<std::uint8_t>& frame) {
  const std::uint64_t t0 = now_ns();
  const bool ok = inner_->recv(frame);
  const std::uint64_t t1 = now_ns();
  if (ok) obs_->on_recv(frame, t0, t1);
  return ok;
}

topkmon::net::MsgType frame_type(const std::vector<std::uint8_t>& frame) {
  return topkmon::net::parse_frame(frame).type;
}

bool write_spans_csv(const std::string& path, std::span<const SpanLog* const> logs) {
  std::ofstream out(path);
  if (!out) return false;
  out << "step,layer,parent,lane,start_ns,dur_ns\n";
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << s.step << ',' << layer_name(s.layer) << ',' << layer_name(s.parent) << ','
          << s.lane << ',';
      if (s.start_ns != kNoStart) out << s.start_ns;
      out << ',' << s.dur_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
