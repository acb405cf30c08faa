#include "net/wire.hpp"

#include <bit>
#include <cstring>
#include <utility>

namespace topkmon::net {

namespace {

/// Containers on the wire are u32-count-prefixed; cap the count so a corrupt
/// or hostile frame cannot ask the decoder to reserve gigabytes.
constexpr std::uint32_t kMaxWireElements = 1u << 24;

/// One FilterEntry on the wire: u32 node + f64 lo + f64 hi.
constexpr std::size_t kFilterEntryBytes = 4 + 8 + 8;

/// The wire is little-endian, so on a little-endian host a value block is
/// its in-memory image and crosses in one memcpy.
constexpr bool kNativeWire = std::endian::native == std::endian::little;

bool known_type(std::uint16_t t) {
  return t >= static_cast<std::uint16_t>(MsgType::kHello) &&
         t <= static_cast<std::uint16_t>(MsgType::kShutdown);
}

void check_type(const Frame& f, MsgType want) {
  if (f.type != want) {
    throw WireError("frame type mismatch: got " + to_string(f.type) +
                    ", want " + to_string(want));
  }
}

}  // namespace

std::string to_string(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kConfig: return "config";
    case MsgType::kStepBegin: return "step_begin";
    case MsgType::kShardValues: return "shard_values";
    case MsgType::kFilterUpdate: return "filter_update";
    case MsgType::kStepAck: return "step_ack";
    case MsgType::kShutdown: return "shutdown";
  }
  return "msg_type(" + std::to_string(static_cast<std::uint16_t>(t)) + ")";
}

// ---------------------------------------------------------------- writer

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::values(const ValueVector& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  if constexpr (kNativeWire) {
    const std::size_t at = buf_.size();
    buf_.resize(at + v.size() * sizeof(Value));
    if (!v.empty()) std::memcpy(buf_.data() + at, v.data(), v.size() * sizeof(Value));
  } else {
    for (const Value x : v) u64(x);
  }
}

std::vector<std::uint8_t> WireWriter::frame(MsgType t) && {
  const std::uint32_t len = static_cast<std::uint32_t>(buf_.size() - 4);
  for (int i = 0; i < 4; ++i) buf_[i] = static_cast<std::uint8_t>(len >> (8 * i));
  buf_[4] = static_cast<std::uint8_t>(kWireVersion);
  buf_[5] = static_cast<std::uint8_t>(kWireVersion >> 8);
  const std::uint16_t type = static_cast<std::uint16_t>(t);
  buf_[6] = static_cast<std::uint8_t>(type);
  buf_[7] = static_cast<std::uint8_t>(type >> 8);
  return std::move(buf_);
}

// ---------------------------------------------------------------- reader

void WireReader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) {
    throw WireError("truncated payload: need " + std::to_string(n) + " bytes, have " +
                    std::to_string(data_.size() - pos_));
  }
}

std::uint8_t WireReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t WireReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::string WireReader::str() {
  const std::uint32_t len = u32();
  if (len > kMaxWireElements) throw WireError("string length out of range");
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

ValueVector WireReader::values() {
  const std::uint32_t count = u32();
  if (count > kMaxWireElements) throw WireError("value count out of range");
  need(std::size_t{count} * sizeof(Value));
  ValueVector v(count);
  if constexpr (kNativeWire) {
    if (count != 0) std::memcpy(v.data(), data_.data() + pos_, count * sizeof(Value));
    pos_ += count * sizeof(Value);
  } else {
    for (std::uint32_t i = 0; i < count; ++i) v[i] = u64();
  }
  return v;
}

void WireReader::expect_end() const {
  if (pos_ != data_.size()) {
    throw WireError("trailing bytes in payload: " + std::to_string(data_.size() - pos_));
  }
}

// ---------------------------------------------------------------- frame

Frame parse_frame(std::span<const std::uint8_t> frame) {
  if (frame.size() < WireWriter::kHeaderBytes) {
    throw WireError("short frame: " + std::to_string(frame.size()) + " bytes");
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(frame[i]) << (8 * i);
  if (std::size_t{len} + 4 != frame.size()) {
    throw WireError("frame length mismatch: header says " + std::to_string(len) +
                    ", buffer has " + std::to_string(frame.size() - 4));
  }
  const std::uint16_t version = static_cast<std::uint16_t>(frame[4]) |
                                static_cast<std::uint16_t>(frame[5]) << 8;
  if (version != kWireVersion) {
    throw WireError("wire version mismatch: got " + std::to_string(version) +
                    ", want " + std::to_string(kWireVersion) +
                    " (rebuild the older binary)");
  }
  const std::uint16_t type = static_cast<std::uint16_t>(frame[6]) |
                             static_cast<std::uint16_t>(frame[7]) << 8;
  if (!known_type(type)) {
    throw WireError("unknown frame type " + std::to_string(type));
  }
  return Frame{static_cast<MsgType>(type), frame.subspan(WireWriter::kHeaderBytes)};
}

// ---------------------------------------------------------------- run spec

std::string validate_run_spec(const RunSpec& spec) {
  if (spec.stream.n == 0) return "spec.stream.n must be at least 1";
  if (spec.stream.k == 0 || spec.stream.k >= spec.stream.n) {
    return "k must satisfy 1 <= k < n (got k=" + std::to_string(spec.stream.k) +
           ", n=" + std::to_string(spec.stream.n) + ")";
  }
  if (spec.steps <= 0) return "steps must be positive";
  // Adaptive adversaries read the protocol's live output through the
  // AdversaryView; node-hosts run the generator without protocol state, so
  // these kinds cannot be distributed.
  if (spec.stream.kind == "lb_adversary" || spec.stream.kind == "phase_torture") {
    return "adaptive stream '" + spec.stream.kind +
           "' is not available in the networked runtime (the generator needs "
           "the protocol's live output; run topk_sim instead)";
  }
  return "";
}

namespace {

void write_stream_spec(WireWriter& w, const StreamSpec& s) {
  w.str(s.kind);
  w.u64(s.n);
  w.u64(s.k);
  w.f64(s.epsilon);
  w.u64(s.delta);
  w.u64(s.sigma);
  w.u64(s.walk_step);
  w.f64(s.churn);
  w.f64(s.drift);
  w.str(s.trace_path);
}

StreamSpec read_stream_spec(WireReader& r) {
  StreamSpec s;
  s.kind = r.str();
  s.n = r.u64();
  s.k = r.u64();
  s.epsilon = r.f64();
  s.delta = r.u64();
  s.sigma = r.u64();
  s.walk_step = r.u64();
  s.churn = r.f64();
  s.drift = r.f64();
  s.trace_path = r.str();
  return s;
}

void write_fault_config(WireWriter& w, const FaultConfig& f) {
  w.f64(f.churn_rate);
  w.f64(f.straggler_fraction);
  w.u64(f.max_delay);
  w.f64(f.loss);
  w.i64(f.horizon);
  w.u64(f.seed);
}

FaultConfig read_fault_config(WireReader& r) {
  FaultConfig f;
  f.churn_rate = r.f64();
  f.straggler_fraction = r.f64();
  f.max_delay = r.u64();
  f.loss = r.f64();
  f.horizon = r.i64();
  f.seed = r.u64();
  return f;
}

void write_run_spec(WireWriter& w, const RunSpec& spec) {
  write_stream_spec(w, spec.stream);
  w.str(spec.protocol);
  w.f64(spec.protocol_epsilon);
  w.u64(spec.seed);
  w.u64(spec.window);
  w.i64(spec.steps);
  w.u64(spec.threshold);
  write_fault_config(w, spec.faults);
}

RunSpec read_run_spec(WireReader& r) {
  RunSpec spec;
  spec.stream = read_stream_spec(r);
  spec.protocol = r.str();
  spec.protocol_epsilon = r.f64();
  spec.seed = r.u64();
  spec.window = r.u64();
  spec.steps = r.i64();
  spec.threshold = r.u64();
  spec.faults = read_fault_config(r);
  return spec;
}

}  // namespace

// ---------------------------------------------------------------- stats

void write_stats(WireWriter& w, const StatsSnapshot& s) {
  w.u64(s.messages);
  w.u64(s.node_to_server);
  w.u64(s.server_to_node);
  w.u64(s.broadcasts);
  w.u32(static_cast<std::uint32_t>(s.by_tag.size()));
  for (const std::uint64_t v : s.by_tag) w.u64(v);
  w.u64(s.rounds);
  w.u64(s.messages_lost);
  w.u64(s.stale_reads);
  w.u64(s.recovery_rounds);
  w.u64(s.window_expirations);
  w.u64(s.net.frames_sent);
  w.u64(s.net.frames_recv);
  w.u64(s.net.bytes_sent);
  w.u64(s.net.bytes_recv);
  w.u64(s.net.send_retries);
  w.u64(s.net.reconnects);
}

StatsSnapshot read_stats(WireReader& r) {
  StatsSnapshot s;
  s.messages = r.u64();
  s.node_to_server = r.u64();
  s.server_to_node = r.u64();
  s.broadcasts = r.u64();
  const std::uint32_t tags = r.u32();
  if (tags != kNumMessageTags) {
    throw WireError("stats tag-count mismatch: got " + std::to_string(tags) +
                    ", want " + std::to_string(kNumMessageTags));
  }
  for (std::size_t t = 0; t < kNumMessageTags; ++t) s.by_tag[t] = r.u64();
  s.rounds = r.u64();
  s.messages_lost = r.u64();
  s.stale_reads = r.u64();
  s.recovery_rounds = r.u64();
  s.window_expirations = r.u64();
  s.net.frames_sent = r.u64();
  s.net.frames_recv = r.u64();
  s.net.bytes_sent = r.u64();
  s.net.bytes_recv = r.u64();
  s.net.send_retries = r.u64();
  s.net.reconnects = r.u64();
  return s;
}

// ---------------------------------------------------------------- encoders

std::vector<std::uint8_t> encode(const HelloMsg& m) {
  WireWriter w;
  w.u32(m.host_index);
  w.u32(m.host_count);
  return std::move(w).frame(MsgType::kHello);
}

std::vector<std::uint8_t> encode(const ConfigMsg& m) {
  WireWriter w;
  write_run_spec(w, m.spec);
  w.u32(m.shard_lo);
  w.u32(m.shard_hi);
  return std::move(w).frame(MsgType::kConfig);
}

std::vector<std::uint8_t> encode(const StepBeginMsg& m) {
  WireWriter w;
  w.i64(m.t);
  return std::move(w).frame(MsgType::kStepBegin);
}

std::vector<std::uint8_t> encode(const ShardValuesMsg& m) {
  WireWriter w;
  // t, lo, count, values, stale, violations: one allocation for the frame.
  w.reserve(8 + 4 + 4 + m.values.size() * sizeof(Value) + 8 + 8);
  w.i64(m.t);
  w.u32(m.lo);
  w.values(m.values);
  w.u64(m.stale);
  w.u64(m.violations);
  return std::move(w).frame(MsgType::kShardValues);
}

std::vector<std::uint8_t> encode(const FilterUpdateMsg& m) {
  WireWriter w;
  w.i64(m.t);
  w.u32(static_cast<std::uint32_t>(m.filters.size()));
  for (const FilterEntry& f : m.filters) {
    w.u32(f.node);
    w.f64(f.lo);
    w.f64(f.hi);
  }
  return std::move(w).frame(MsgType::kFilterUpdate);
}

std::vector<std::uint8_t> encode(const StepAckMsg& m) {
  WireWriter w;
  w.i64(m.t);
  w.u64(m.quiescence_errors);
  return std::move(w).frame(MsgType::kStepAck);
}

std::vector<std::uint8_t> encode(const ShutdownMsg& m) {
  WireWriter w;
  write_stats(w, m.stats);
  return std::move(w).frame(MsgType::kShutdown);
}

// ---------------------------------------------------------------- decoders

HelloMsg decode_hello(const Frame& f) {
  check_type(f, MsgType::kHello);
  WireReader r(f.payload);
  HelloMsg m;
  m.host_index = r.u32();
  m.host_count = r.u32();
  r.expect_end();
  return m;
}

ConfigMsg decode_config(const Frame& f) {
  check_type(f, MsgType::kConfig);
  WireReader r(f.payload);
  ConfigMsg m;
  m.spec = read_run_spec(r);
  m.shard_lo = r.u32();
  m.shard_hi = r.u32();
  r.expect_end();
  return m;
}

StepBeginMsg decode_step_begin(const Frame& f) {
  check_type(f, MsgType::kStepBegin);
  WireReader r(f.payload);
  StepBeginMsg m;
  m.t = r.i64();
  r.expect_end();
  return m;
}

ShardValuesMsg decode_shard_values(const Frame& f) {
  check_type(f, MsgType::kShardValues);
  WireReader r(f.payload);
  ShardValuesMsg m;
  m.t = r.i64();
  m.lo = r.u32();
  m.values = r.values();
  m.stale = r.u64();
  m.violations = r.u64();
  r.expect_end();
  return m;
}

FilterUpdateMsg decode_filter_update(const Frame& f) {
  check_type(f, MsgType::kFilterUpdate);
  WireReader r(f.payload);
  FilterUpdateMsg m;
  m.t = r.i64();
  const std::uint32_t count = r.u32();
  // Check the claim against the bytes actually present before sizing the
  // vector: a short frame must not be able to demand a huge allocation.
  if (std::size_t{count} * kFilterEntryBytes > r.remaining()) {
    throw WireError("filter count " + std::to_string(count) + " exceeds payload");
  }
  m.filters.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    m.filters[i].node = r.u32();
    m.filters[i].lo = r.f64();
    m.filters[i].hi = r.f64();
  }
  r.expect_end();
  return m;
}

StepAckMsg decode_step_ack(const Frame& f) {
  check_type(f, MsgType::kStepAck);
  WireReader r(f.payload);
  StepAckMsg m;
  m.t = r.i64();
  m.quiescence_errors = r.u64();
  r.expect_end();
  return m;
}

ShutdownMsg decode_shutdown(const Frame& f) {
  check_type(f, MsgType::kShutdown);
  WireReader r(f.payload);
  ShutdownMsg m;
  m.stats = read_stats(r);
  r.expect_end();
  return m;
}

}  // namespace topkmon::net
