// Wire format of the networked runtime (src/net).
//
// Every message between the coordinator (topk_coord) and a node-host
// (topk_node) travels as one length-prefixed, versioned frame:
//
//   [u32 length][u16 version][u16 type][payload...]
//
// `length` counts everything after the length field itself (version + type +
// payload), so a stream reader needs exactly one fixed-size read to learn how
// much to pull next. All integers are little-endian fixed-width; doubles are
// the IEEE-754 bit pattern as u64. Containers are u32-count-prefixed.
//
// Version policy: `kWireVersion` bumps on ANY layout change — the format is
// an internal protocol between binaries built from one tree, not a public
// interchange format, so there is no cross-version negotiation: a frame whose
// version differs from the reader's is rejected (WireError) and the peer is
// expected to be rebuilt. The version check runs before any payload decode,
// so mixed-build deployments fail fast instead of misparsing.
//
// Layouts: each struct's payload layout is stated once, as its field list in
// wire.cpp (`fields(io, m)`). WireWriter walks the list to encode, WireReader
// to decode, and a byte counter to size the frame before it is written, so a
// new field is one line in its struct's list (plus the version bump).
//
// Decoding is bounds-checked: truncated or trailing-garbage payloads throw
// WireError rather than reading out of range (byte-mutation fuzzed over every
// decoder in tests/test_wire.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/schedule.hpp"
#include "model/types.hpp"
#include "model/window.hpp"
#include "sim/stats_snapshot.hpp"
#include "streams/registry.hpp"

namespace topkmon::net {

inline constexpr std::uint16_t kWireVersion = 2;  ///< v2: RunSpec.threshold

/// Malformed frame: wrong version, unknown type, truncation, trailing bytes.
struct WireError : std::runtime_error {
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

enum class MsgType : std::uint16_t {
  kHello = 1,         ///< node -> coord: host identity
  kConfig = 2,        ///< coord -> node: full run spec + shard assignment
  kStepBegin = 3,     ///< coord -> node: advance to step t
  kShardValues = 4,   ///< node -> coord: the shard's effective observations
  kFilterUpdate = 5,  ///< coord -> node: filter deltas for the shard
  kStepAck = 6,       ///< node -> coord: filters applied, quiescence verdict
  kShutdown = 7,      ///< coord -> node: run over; carries the final stats
};

std::string to_string(MsgType t);

// ---------------------------------------------------------------- primitives

/// Append-only little-endian encoder. The buffer starts with room for the
/// frame header, so `frame()` seals it in place into a complete
/// [len][version][type][payload] frame without copying the payload.
class WireWriter {
 public:
  /// Reserves the whole frame for `payload_bytes` of payload: a frame sized
  /// up front is built in one allocation.
  explicit WireWriter(std::size_t payload_bytes = 0) {
    buf_.reserve(kHeaderBytes + payload_bytes);
    buf_.resize(kHeaderBytes);
  }

  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(const std::string& s);
  void values(std::span<const Value> v);

  /// Seals the payload written so far into a full frame of type `t` and
  /// hands the buffer over, consuming the writer: `std::move(w).frame(t)`.
  std::vector<std::uint8_t> frame(MsgType t) &&;

  static constexpr std::size_t kHeaderBytes = 4 + 2 + 2;  ///< len + version + type

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over one payload span.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  ValueVector values();

  // The same calls reading into a field, as wire.cpp's field lists make them.
  void u32(std::uint32_t& v) { v = u32(); }
  void u64(std::uint64_t& v) { v = u64(); }
  void i64(std::int64_t& v) { v = i64(); }
  void f64(double& v) { v = f64(); }
  void str(std::string& s) { s = str(); }
  void values(ValueVector& v) { v = values(); }

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Throws WireError unless the payload was consumed exactly.
  void expect_end() const;

 private:
  void need(std::size_t n) const;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// A parsed frame header: the type plus a view of the payload bytes. The view
/// aliases the frame buffer passed to parse_frame and is valid as long as it.
struct Frame {
  MsgType type;
  std::span<const std::uint8_t> payload;
};

/// Validates [len][version][type] and returns the typed payload view.
/// Throws WireError on short buffers, length mismatch or version mismatch.
Frame parse_frame(std::span<const std::uint8_t> frame);

// ---------------------------------------------------------------- messages

/// node -> coord, first frame on a fresh link: which host this is.
struct HelloMsg {
  std::uint32_t host_index = 0;
  std::uint32_t host_count = 0;

  friend bool operator==(const HelloMsg&, const HelloMsg&) = default;
};

/// Everything a node-host needs to reproduce its share of the run: the
/// workload (stream + protocol + monitoring parameters) and the fault model.
/// Node-hosts receive the full spec in ConfigMsg and need zero workload
/// flags of their own — the coordinator is the single configuration source.
struct RunSpec {
  StreamSpec stream;                  ///< workload (stream.k is the query k)
  std::string protocol = "combined";  ///< protocols/registry name
  double protocol_epsilon = 0.1;      ///< the protocol's ε (cfg.epsilon)
  std::uint64_t seed = 42;            ///< master seed (generator/protocol/loss)
  std::size_t window = kInfiniteWindow;  ///< sliding-window length W (0 = off)
  TimeStep steps = 1000;              ///< run length
  Value threshold = 0;  ///< bound T for threshold-alert protocols (else unused)
  FaultConfig faults;                 ///< fleet degradation script knobs

  friend bool operator==(const RunSpec&, const RunSpec&) = default;
};

/// Rejects specs the networked runtime cannot serve: adaptive generators
/// (lb_adversary, phase_torture — they read the protocol's output, which
/// node-hosts do not have) and degenerate parameters. Returns "" when OK.
std::string validate_run_spec(const RunSpec& spec);

/// coord -> node: the run spec plus this host's contiguous shard [lo, hi).
struct ConfigMsg {
  RunSpec spec;
  std::uint32_t shard_lo = 0;
  std::uint32_t shard_hi = 0;

  friend bool operator==(const ConfigMsg&, const ConfigMsg&) = default;
};

struct StepBeginMsg {
  TimeStep t = 0;

  friend bool operator==(const StepBeginMsg&, const StepBeginMsg&) = default;
};

/// node -> coord: the shard's effective (post-fault, pre-window) values for
/// step t, plus the node-side fault/violation observations of the shard.
struct ShardValuesMsg {
  TimeStep t = 0;
  std::uint32_t lo = 0;  ///< first node id of the shard
  ValueVector values;    ///< effective values of nodes [lo, lo+size)
  std::uint64_t stale = 0;       ///< shard observations served from the past
  std::uint64_t violations = 0;  ///< shard nodes violating their filter
                                 ///< (unread by the coordinator)

  friend bool operator==(const ShardValuesMsg&, const ShardValuesMsg&) = default;
};

/// ShardValuesMsg with its values borrowed from the sender's buffer, so a
/// node-host frames its pipeline's effective slice without copying it into a
/// message first. Same field list, same bytes as the owning message.
struct ShardValuesView {
  TimeStep t = 0;
  std::uint32_t lo = 0;
  std::span<const Value> values;
  std::uint64_t stale = 0;
  std::uint64_t violations = 0;
};

struct FilterEntry {
  NodeId node = 0;
  double lo = 0.0;
  double hi = 0.0;

  friend bool operator==(const FilterEntry&, const FilterEntry&) = default;
};

/// coord -> node: the filters the protocol (re)assigned this step, restricted
/// to the receiving shard. Sent every step, possibly empty, so the node-host
/// always knows when the step's control phase is over.
struct FilterUpdateMsg {
  TimeStep t = 0;
  std::vector<FilterEntry> filters;

  friend bool operator==(const FilterUpdateMsg&, const FilterUpdateMsg&) = default;
};

/// node -> coord: filters applied; `quiescence_errors` counts shard nodes
/// whose monitored (windowed) value still violates the freshly installed
/// filter — zero whenever the protocol upheld its per-step contract.
struct StepAckMsg {
  TimeStep t = 0;
  std::uint64_t quiescence_errors = 0;

  friend bool operator==(const StepAckMsg&, const StepAckMsg&) = default;
};

/// coord -> node: the run is over. Carries the coordinator's final aggregate
/// statistics so node binaries can report without a second channel.
struct ShutdownMsg {
  StatsSnapshot stats;

  friend bool operator==(const ShutdownMsg&, const ShutdownMsg&) = default;
};

// Frame encoders: one complete wire frame per message.
std::vector<std::uint8_t> encode(const HelloMsg& m);
std::vector<std::uint8_t> encode(const ConfigMsg& m);
std::vector<std::uint8_t> encode(const StepBeginMsg& m);
std::vector<std::uint8_t> encode(const ShardValuesMsg& m);
std::vector<std::uint8_t> encode(const ShardValuesView& m);
std::vector<std::uint8_t> encode(const FilterUpdateMsg& m);
std::vector<std::uint8_t> encode(const StepAckMsg& m);
std::vector<std::uint8_t> encode(const ShutdownMsg& m);

// Payload decoders: call with the Frame returned by parse_frame (the type is
// re-checked; every decoder throws WireError on mismatch or malformation).
HelloMsg decode_hello(const Frame& f);
ConfigMsg decode_config(const Frame& f);
StepBeginMsg decode_step_begin(const Frame& f);
ShardValuesMsg decode_shard_values(const Frame& f);
FilterUpdateMsg decode_filter_update(const Frame& f);
StepAckMsg decode_step_ack(const Frame& f);
ShutdownMsg decode_shutdown(const Frame& f);

}  // namespace topkmon::net
