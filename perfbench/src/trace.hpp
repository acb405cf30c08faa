// Tracing seams of the benchmark.
//
// Everything here sits *outside* the library: an in-memory span log, the
// pass-through decorators the benchmark slips around the library's public
// extension points (StreamGenerator, MonitoringProtocol via the protocol
// registry, net::Transport), and a reader that turns StepProfiler phase
// totals into per-step spans for the sub-layers inside Simulator::step_with
// that have no public seam. No decorator changes what the wrapped object
// computes: each forwards every call and only reads clocks around it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "net/wire.hpp"
#include "sim/protocol.hpp"
#include "sim/stream.hpp"
#include "telemetry/profiler.hpp"

namespace perfbench {

std::uint64_t now_ns();

/// The layers a span can belong to. kStep is one closed-loop step,
/// the root of every step; the rest are calls into one module.
enum class Layer : std::uint8_t {
  kStep,
  kStreams,           ///< StreamGenerator::init / step
  kFaults,            ///< profiler phase kFaultInject
  kWindowMerge,       ///< profiler phase kWindowMerge
  kAdvanceTime,       ///< profiler phase kAdvanceTime
  kProtocol,          ///< start / on_step / on_window_expiry
  kRecovery,          ///< on_membership_change
  kViolationCollect,  ///< profiler phase kViolationCollect (inside kProtocol)
  kOrderUpdate,       ///< profiler phase kOrderUpdate
  kSigma,             ///< profiler phase kSigma
  kSimStep,           ///< net: coordinator from last shard report to first filter update
  kSnapshot,          ///< engine: profiler phase kSnapshotBegin
  kShard,             ///< engine: one shard advancing its queries (kShardAdvance)
  kCoordSend,         ///< net: coordinator inside Transport::send
  kCoordRecv,         ///< net: coordinator blocked in Transport::recv
  kHostWait,          ///< net: node-host blocked in Transport::recv
  kHostBusy,          ///< net: node-host between two recv calls
  kCount
};
inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer layer);

/// Marks a span whose duration comes from a StepProfiler phase total: the
/// profiler keeps no start times, so only the duration is known.
inline constexpr std::uint64_t kNoStart = ~std::uint64_t{0};

struct Span {
  std::uint32_t step = 0;
  Layer layer = Layer::kStep;
  Layer parent = Layer::kStep;
  std::uint16_t lane = 0;  ///< shard, host or query the span ran on
  std::uint64_t start_ns = kNoStart;
  std::uint64_t dur_ns = 0;
};

/// Single-writer, append-only span buffer; written out when the run ends.
class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  void add(std::uint32_t step, Layer layer, Layer parent, std::uint16_t lane,
           std::uint64_t start_ns, std::uint64_t dur_ns) {
    spans_.push_back(Span{step, layer, parent, lane, start_ns, dur_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Which StepProfiler phase feeds which layer.
struct PhaseMap {
  topkmon::telemetry::Phase phase;
  Layer layer;
  Layer parent;
};

/// Turns a profiler's running phase totals into per-step duration spans.
class PhaseTap {
 public:
  explicit PhaseTap(const topkmon::telemetry::StepProfiler* prof) : prof_(prof) {}

  /// Logs, as spans of `step`, the time each mapped phase gained since the
  /// previous call.
  void flush(SpanLog& log, std::uint32_t step, std::uint16_t lane,
             std::span<const PhaseMap> map);

 private:
  const topkmon::telemetry::StepProfiler* prof_;
  std::uint64_t seen_[topkmon::telemetry::kNumPhases] = {};
};

// ---------------------------------------------------------------- streams

class TracedStream final : public topkmon::StreamGenerator {
 public:
  TracedStream(std::unique_ptr<topkmon::StreamGenerator> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  std::size_t n() const override { return inner_->n(); }
  void init(topkmon::ValueVector& out, topkmon::Rng& rng) override;
  void step(topkmon::TimeStep t, const topkmon::AdversaryView& view,
            topkmon::ValueVector& out, topkmon::Rng& rng) override;
  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<topkmon::StreamGenerator> clone() const override {
    return std::make_unique<TracedStream>(inner_->clone(), log_);
  }

 private:
  std::unique_ptr<topkmon::StreamGenerator> inner_;
  SpanLog* log_;
};

// ---------------------------------------------------------------- protocols

/// Order-sensitive fingerprint of everything a protocol answers: F(t) plus
/// the k-select, count-distinct and threshold answers it advertises.
std::uint64_t answer_fingerprint(const topkmon::MonitoringProtocol& p, std::size_t k);

class TracedProtocol final : public topkmon::MonitoringProtocol {
 public:
  explicit TracedProtocol(std::unique_ptr<topkmon::MonitoringProtocol> inner);

  void start(topkmon::SimContext& ctx) override;
  void on_step(topkmon::SimContext& ctx) override;
  void on_membership_change(topkmon::SimContext& ctx) override;
  void on_window_expiry(topkmon::SimContext& ctx) override;
  const topkmon::OutputSet& output() const override { return inner_->output(); }
  const topkmon::QueryCapabilities* capabilities() const override {
    return inner_->capabilities();
  }
  std::string_view name() const override { return inner_->name(); }

  /// Where this instance's spans hang: lane (query handle) and parent layer.
  void place(std::uint16_t lane, Layer parent) {
    lane_ = lane;
    parent_ = parent;
  }
  topkmon::QueryKind kind() const { return kind_; }
  const SpanLog& log() const { return log_; }

  /// Steps (from `first_step` on) that sent at least one message, and those
  /// of them after which the protocol's answer differed from before.
  std::uint64_t steps_with_messages(std::uint32_t first_step) const;
  std::uint64_t useful_steps(std::uint32_t first_step) const;

 private:
  template <class Fn>
  void timed(topkmon::SimContext& ctx, Layer layer, Fn&& fn);

  std::unique_ptr<topkmon::MonitoringProtocol> inner_;
  topkmon::QueryKind kind_;
  std::uint16_t lane_ = 0;
  Layer parent_ = Layer::kStep;
  SpanLog log_;
  /// Per call: step index, whether it sent messages, whether the answer moved.
  struct Outcome {
    std::uint32_t step;
    bool messaged;
    bool changed;
  };
  std::vector<Outcome> outcomes_;
};

/// Registers, once per process, a traced twin of registry protocol `base`
/// and returns its name: `base` in upper case. The twin's name has the same
/// length as the original, so a RunSpec naming it encodes to the same number
/// of wire bytes.
std::string traced_protocol_name(const std::string& base);

/// Traced protocol instances the registry built since the previous call, in
/// construction order (the order the engine assigns query handles).
std::vector<TracedProtocol*> take_traced_protocols();

// ---------------------------------------------------------------- transport

class FrameObserver {
 public:
  virtual ~FrameObserver() = default;
  virtual void on_send(const std::vector<std::uint8_t>& frame, std::uint64_t t0,
                       std::uint64_t t1) = 0;
  virtual void on_recv(const std::vector<std::uint8_t>& frame, std::uint64_t t0,
                       std::uint64_t t1) = 0;
};

/// Pass-through Transport that reports every delivered frame, with the clock
/// readings around the call, to an observer.
class TimedTransport final : public topkmon::net::Transport {
 public:
  TimedTransport(std::unique_ptr<topkmon::net::Transport> inner, FrameObserver* obs)
      : inner_(std::move(inner)), obs_(obs) {}

  bool send(const std::vector<std::uint8_t>& frame) override;
  bool recv(std::vector<std::uint8_t>& frame) override;
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<topkmon::net::Transport> inner_;
  FrameObserver* obs_;
};

/// The frame type of a complete wire frame.
topkmon::net::MsgType frame_type(const std::vector<std::uint8_t>& frame);

/// Writes every span of `logs` as CSV (step,layer,parent,lane,start_ns,dur_ns;
/// start_ns empty for profiler-derived spans). False on I/O error.
bool write_spans_csv(const std::string& path, std::span<const SpanLog* const> logs);

}  // namespace perfbench
