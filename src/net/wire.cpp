#include "net/wire.hpp"

#include <bit>
#include <concepts>
#include <cstring>
#include <type_traits>
#include <utility>

namespace topkmon::net {

namespace {

/// Containers on the wire are u32-count-prefixed; cap the count so a corrupt
/// or hostile frame cannot ask the decoder to reserve gigabytes.
constexpr std::uint32_t kMaxWireElements = 1u << 24;

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

void WireWriter::values(std::span<const Value> v) {
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

// ---------------------------------------------------------------- layouts
// One field list per struct states its wire layout (see wire.hpp).

namespace {

/// `M` is `T` or `const T`: the writer and the byte counter walk a const
/// struct, the reader a mutable one.
template <class M, class T>
concept Like = std::same_as<std::remove_const_t<M>, T>;

/// A shard report, owned (written and read) or borrowed (written only).
template <class M>
concept ShardValuesLike =
    Like<M, ShardValuesMsg> || std::same_as<M, const ShardValuesView>;

/// Counts the payload bytes WireWriter writes for the same field calls.
struct WireSize {
  std::size_t bytes = 0;
  void u32(std::uint32_t) { bytes += 4; }
  void u64(std::uint64_t) { bytes += 8; }
  void i64(std::int64_t) { bytes += 8; }
  void f64(double) { bytes += 8; }
  void str(const std::string& s) { bytes += 4 + s.size(); }
  void values(std::span<const Value> v) { bytes += 4 + v.size() * sizeof(Value); }
};

/// Payload bytes of `m`. WireSize lives in this namespace, so the call below
/// finds every field list in the file, also those declared further down.
template <class M>
std::size_t payload_bytes(const M& m) {
  WireSize size;
  fields(size, m);
  return size.bytes;
}

/// One counter of StatsSnapshot::by_tag.
void fields(auto& io, Like<std::uint64_t> auto& v) { io.u64(v); }

void fields(auto& io, Like<FilterEntry> auto& e) {
  io.u32(e.node);
  io.f64(e.lo);
  io.f64(e.hi);
}

/// A u32 count, then each element's field list. The reader checks a vector's
/// count against the bytes left before sizing anything, and demands a fixed
/// array's exact size.
template <class Io, class C>
void counted(Io& io, C& c) {
  if constexpr (!std::is_same_v<Io, WireReader>) {
    io.u32(static_cast<std::uint32_t>(c.size()));
  } else {
    const std::uint32_t n = io.u32();
    if constexpr (requires { c.resize(n); }) {
      if (n * payload_bytes(typename C::value_type{}) > io.remaining()) {
        throw WireError("list count " + std::to_string(n) + " exceeds payload");
      }
      c.resize(n);
    } else if (n != c.size()) {
      throw WireError("count mismatch: got " + std::to_string(n) + ", want " +
                      std::to_string(c.size()));
    }
  }
  for (auto& e : c) fields(io, e);
}

void fields(auto& io, Like<StreamSpec> auto& s) {
  io.str(s.kind);
  io.u64(s.n);
  io.u64(s.k);
  io.f64(s.epsilon);
  io.u64(s.delta);
  io.u64(s.sigma);
  io.u64(s.walk_step);
  io.f64(s.churn);
  io.f64(s.drift);
  io.str(s.trace_path);
}

void fields(auto& io, Like<FaultConfig> auto& f) {
  io.f64(f.churn_rate);
  io.f64(f.straggler_fraction);
  io.u64(f.max_delay);
  io.f64(f.loss);
  io.i64(f.horizon);
  io.u64(f.seed);
}

void fields(auto& io, Like<RunSpec> auto& spec) {
  fields(io, spec.stream);
  io.str(spec.protocol);
  io.f64(spec.protocol_epsilon);
  io.u64(spec.seed);
  io.u64(spec.window);
  io.i64(spec.steps);
  io.u64(spec.threshold);
  fields(io, spec.faults);
}

/// The full StatsSnapshot: totals, kinds, per-tag counters (count-checked),
/// rounds, fault metrics, window metric and transport counters.
void fields(auto& io, Like<StatsSnapshot> auto& s) {
  io.u64(s.messages);
  io.u64(s.node_to_server);
  io.u64(s.server_to_node);
  io.u64(s.broadcasts);
  counted(io, s.by_tag);
  io.u64(s.rounds);
  io.u64(s.messages_lost);
  io.u64(s.stale_reads);
  io.u64(s.recovery_rounds);
  io.u64(s.window_expirations);
  io.u64(s.net.frames_sent);
  io.u64(s.net.frames_recv);
  io.u64(s.net.bytes_sent);
  io.u64(s.net.bytes_recv);
  io.u64(s.net.send_retries);
  io.u64(s.net.reconnects);
}

void fields(auto& io, Like<HelloMsg> auto& m) {
  io.u32(m.host_index);
  io.u32(m.host_count);
}

void fields(auto& io, Like<ConfigMsg> auto& m) {
  fields(io, m.spec);
  io.u32(m.shard_lo);
  io.u32(m.shard_hi);
}

void fields(auto& io, Like<StepBeginMsg> auto& m) {
  io.i64(m.t);
}

void fields(auto& io, ShardValuesLike auto& m) {
  io.i64(m.t);
  io.u32(m.lo);
  io.values(m.values);
  io.u64(m.stale);
  io.u64(m.violations);
}

void fields(auto& io, Like<FilterUpdateMsg> auto& m) {
  io.i64(m.t);
  counted(io, m.filters);
}

void fields(auto& io, Like<StepAckMsg> auto& m) {
  io.i64(m.t);
  io.u64(m.quiescence_errors);
}

void fields(auto& io, Like<ShutdownMsg> auto& m) {
  fields(io, m.stats);
}

using Bytes = std::vector<std::uint8_t>;

template <class M>
Bytes encode_frame(MsgType type, const M& m) {
  WireWriter w(payload_bytes(m));
  fields(w, m);
  return std::move(w).frame(type);
}

template <class M>
M decode_frame(const Frame& f, MsgType type) {
  check_type(f, type);
  WireReader r(f.payload);
  M m;
  fields(r, m);
  r.expect_end();
  return m;
}

}  // namespace

// ---------------------------------------------------------------- messages

Bytes encode(const HelloMsg& m) {
  return encode_frame(MsgType::kHello, m);
}
Bytes encode(const ConfigMsg& m) {
  return encode_frame(MsgType::kConfig, m);
}
Bytes encode(const StepBeginMsg& m) {
  return encode_frame(MsgType::kStepBegin, m);
}
Bytes encode(const ShardValuesMsg& m) {
  return encode_frame(MsgType::kShardValues, m);
}
Bytes encode(const ShardValuesView& m) {
  return encode_frame(MsgType::kShardValues, m);
}
Bytes encode(const FilterUpdateMsg& m) {
  return encode_frame(MsgType::kFilterUpdate, m);
}
Bytes encode(const StepAckMsg& m) {
  return encode_frame(MsgType::kStepAck, m);
}
Bytes encode(const ShutdownMsg& m) {
  return encode_frame(MsgType::kShutdown, m);
}

HelloMsg decode_hello(const Frame& f) {
  return decode_frame<HelloMsg>(f, MsgType::kHello);
}
ConfigMsg decode_config(const Frame& f) {
  return decode_frame<ConfigMsg>(f, MsgType::kConfig);
}
StepBeginMsg decode_step_begin(const Frame& f) {
  return decode_frame<StepBeginMsg>(f, MsgType::kStepBegin);
}
ShardValuesMsg decode_shard_values(const Frame& f) {
  return decode_frame<ShardValuesMsg>(f, MsgType::kShardValues);
}
FilterUpdateMsg decode_filter_update(const Frame& f) {
  return decode_frame<FilterUpdateMsg>(f, MsgType::kFilterUpdate);
}
StepAckMsg decode_step_ack(const Frame& f) {
  return decode_frame<StepAckMsg>(f, MsgType::kStepAck);
}
ShutdownMsg decode_shutdown(const Frame& f) {
  return decode_frame<ShutdownMsg>(f, MsgType::kShutdown);
}

}  // namespace topkmon::net
