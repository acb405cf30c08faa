// Wire-format tests (ctest label: net): every message round-trips through
// encode → parse_frame → decode, and malformed frames — wrong version,
// unknown type, truncation, trailing bytes, type mismatch — throw WireError
// instead of misparsing. A byte-mutation fuzz drives every decoder with
// hostile variants of one valid frame per message type.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <utility>
#include <vector>

#include "net/wire.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"

namespace topkmon::net {
namespace {

RunSpec sample_spec() {
  RunSpec spec;
  spec.stream.kind = "oscillating";
  spec.stream.n = 24;
  spec.stream.k = 5;
  spec.stream.epsilon = 0.15;
  spec.stream.delta = 1 << 18;
  spec.stream.sigma = 9;
  spec.stream.walk_step = 32;
  spec.stream.churn = 0.5;
  spec.stream.drift = 0.01;
  spec.stream.trace_path = "some/trace.csv";
  spec.protocol = "topk_protocol";
  spec.protocol_epsilon = 0.2;
  spec.seed = 1234567;
  spec.window = 64;
  spec.steps = 321;
  spec.faults.churn_rate = 0.01;
  spec.faults.straggler_fraction = 0.25;
  spec.faults.max_delay = 7;
  spec.faults.loss = 0.05;
  spec.faults.seed = 99;
  spec.faults.horizon = 321;
  return spec;
}

StatsSnapshot sample_stats() {
  StatsSnapshot s;
  s.messages = 101;
  s.node_to_server = 60;
  s.server_to_node = 11;
  s.broadcasts = 30;
  for (std::size_t t = 0; t < kNumMessageTags; ++t) s.by_tag[t] = 7 * t + 1;
  s.rounds = 500;
  s.messages_lost = 3;
  s.stale_reads = 44;
  s.recovery_rounds = 2;
  s.window_expirations = 12;
  s.net.frames_sent = 1000;
  s.net.frames_recv = 999;
  s.net.bytes_sent = 123456;
  s.net.bytes_recv = 654321;
  s.net.send_retries = 17;
  s.net.reconnects = 1;
  return s;
}

/// The message of Wire.ShardValuesGoldenBytes.
ShardValuesMsg golden_shard_values() {
  ShardValuesMsg m;
  m.t = 17;
  m.lo = 8;
  m.values = {5, 0, 1ull << 40, 3};
  m.stale = 2;
  m.violations = 1;
  return m;
}

/// Rewrites the length prefix to match the buffer, so parse_frame accepts it.
void patch_length(std::vector<std::uint8_t>& frame) {
  const std::uint32_t len = static_cast<std::uint32_t>(frame.size() - 4);
  for (int i = 0; i < 4; ++i) frame[i] = static_cast<std::uint8_t>(len >> (8 * i));
}

TEST(Wire, PrimitivesRoundTrip) {
  WireWriter w;
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.str("hello wire");
  w.values(ValueVector{1, 2, 3, 1ull << 60});
  const std::vector<std::uint8_t> frame = std::move(w).frame(MsgType::kHello);

  const Frame f = parse_frame(frame);
  EXPECT_EQ(f.type, MsgType::kHello);
  WireReader r(f.payload);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "hello wire");
  EXPECT_EQ(r.values(), (ValueVector{1, 2, 3, 1ull << 60}));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Wire, HelloRoundTrips) {
  const HelloMsg m{3, 8};
  EXPECT_EQ(decode_hello(parse_frame(encode(m))), m);
}

TEST(Wire, ConfigRoundTripsTheFullRunSpec) {
  ConfigMsg m;
  m.spec = sample_spec();
  m.shard_lo = 6;
  m.shard_hi = 12;
  EXPECT_EQ(decode_config(parse_frame(encode(m))), m);
}

TEST(Wire, StepBeginRoundTrips) {
  const StepBeginMsg m{987654321};
  EXPECT_EQ(decode_step_begin(parse_frame(encode(m))), m);
}

TEST(Wire, ShardValuesRoundTrips) {
  ShardValuesMsg m;
  m.t = 17;
  m.lo = 8;
  m.values = {5, 0, 1ull << 40, 3};
  m.stale = 2;
  m.violations = 1;
  EXPECT_EQ(decode_shard_values(parse_frame(encode(m))), m);
}

TEST(Wire, ShardValuesGoldenBytes) {
  // The exact little-endian frame, independent of how the codec is written:
  // [len 68][version 2][type 4] t=17, lo=8, count 4, values, stale, violations.
  const ShardValuesMsg m = golden_shard_values();
  const std::vector<std::uint8_t> golden = {
      0x44, 0, 0, 0, 0x02, 0, 0x04, 0,           // header
      0x11, 0, 0, 0, 0, 0, 0, 0,                 // t
      0x08, 0, 0, 0,                             // lo
      0x04, 0, 0, 0,                             // value count
      0x05, 0, 0, 0, 0, 0, 0, 0,                 // values[0]
      0, 0, 0, 0, 0, 0, 0, 0,                    // values[1]
      0, 0, 0, 0, 0, 0x01, 0, 0,                 // values[2] = 2^40
      0x03, 0, 0, 0, 0, 0, 0, 0,                 // values[3]
      0x02, 0, 0, 0, 0, 0, 0, 0,                 // stale
      0x01, 0, 0, 0, 0, 0, 0, 0,                 // violations
  };
  EXPECT_EQ(encode(m), golden);
  EXPECT_EQ(decode_shard_values(parse_frame(golden)), m);
}

TEST(Wire, ShardValuesViewFramesTheSameBytes) {
  // A node-host frames its report straight from a slice of the fleet vector;
  // the bytes must be exactly those of the owning message's encoding.
  Rng rng(0x5A1CE);
  for (int trial = 0; trial < 200; ++trial) {
    ValueVector fleet(rng.uniform_u64(0, 40));
    for (Value& v : fleet) v = rng.next_u64() >> rng.uniform_u64(0, 63);
    const std::size_t lo = rng.uniform_u64(0, fleet.size());
    const std::size_t hi = rng.uniform_u64(lo, fleet.size());
    ShardValuesView view;
    view.t = static_cast<TimeStep>(rng.uniform_u64(0, 1u << 30));
    view.lo = static_cast<std::uint32_t>(lo);
    view.values = std::span<const Value>(fleet).subspan(lo, hi - lo);
    view.stale = rng.next_u64();
    view.violations = rng.uniform_u64(0, hi - lo);
    ShardValuesMsg m;
    m.t = view.t;
    m.lo = view.lo;
    m.values.assign(fleet.begin() + lo, fleet.begin() + hi);
    m.stale = view.stale;
    m.violations = view.violations;
    ASSERT_EQ(encode(view), encode(m)) << "trial " << trial;
  }
  const ShardValuesMsg golden = golden_shard_values();
  const ShardValuesView golden_view{golden.t, golden.lo, golden.values, golden.stale,
                                    golden.violations};
  EXPECT_EQ(encode(golden_view), encode(golden));
}

TEST(Wire, FilterUpdateRoundTrips) {
  FilterUpdateMsg m;
  m.t = 3;
  m.filters = {{0, 1.5, 7.25}, {11, -1e18, 1e18}};
  EXPECT_EQ(decode_filter_update(parse_frame(encode(m))), m);

  const FilterUpdateMsg empty{42, {}};
  EXPECT_EQ(decode_filter_update(parse_frame(encode(empty))), empty);
}

TEST(Wire, StepAckRoundTrips) {
  const StepAckMsg m{55, 4};
  EXPECT_EQ(decode_step_ack(parse_frame(encode(m))), m);
}

TEST(Wire, ShutdownRoundTripsTheFullStatsSnapshot) {
  const ShutdownMsg m{sample_stats()};
  EXPECT_EQ(decode_shutdown(parse_frame(encode(m))), m);
}

TEST(Wire, RejectsVersionMismatch) {
  std::vector<std::uint8_t> frame = encode(HelloMsg{0, 1});
  frame[4] ^= 0xFF;  // low byte of the u16 version field
  EXPECT_THROW(parse_frame(frame), WireError);
}

TEST(Wire, RejectsUnknownType) {
  WireWriter w;
  w.u32(1);
  std::vector<std::uint8_t> frame = std::move(w).frame(MsgType::kHello);
  frame[6] = 0x77;  // low byte of the u16 type field
  frame[7] = 0x77;
  EXPECT_THROW(parse_frame(frame), WireError);
}

TEST(Wire, RejectsTruncation) {
  const std::vector<std::uint8_t> frame = encode(ConfigMsg{sample_spec(), 0, 4});
  // Every strict prefix must be rejected somewhere: short header/length
  // mismatch in parse_frame, or payload truncation in the decoder.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::vector<std::uint8_t> cut(frame.begin(), frame.begin() + len);
    EXPECT_THROW(decode_config(parse_frame(cut)), WireError) << "prefix " << len;
  }
}

TEST(Wire, RejectsTrailingBytes) {
  // Grow the payload without updating the inner structure: the decoder must
  // notice the unconsumed tail. The length prefix is patched so parse_frame
  // accepts the frame and the tail check is what fires.
  std::vector<std::uint8_t> frame = encode(StepAckMsg{1, 2});
  frame.push_back(0xCC);
  patch_length(frame);
  EXPECT_THROW(decode_step_ack(parse_frame(frame)), WireError);
}

TEST(Wire, RejectsOversizedFilterCountBeforeAllocating) {
  // A 20-byte frame that claims 2^24 filter entries (about 400 MB decoded)
  // is rejected on its payload length before the decoder sizes anything.
  WireWriter w;
  w.i64(0);
  w.u32(1u << 24);
  const std::vector<std::uint8_t> frame = std::move(w).frame(MsgType::kFilterUpdate);
  ASSERT_EQ(frame.size(), 20u);
  const AllocProbe probe;
  EXPECT_THROW(decode_filter_update(parse_frame(frame)), WireError);
  if (alloc_counting_active()) {
    EXPECT_LT(probe.delta_bytes(), 4096u);
  }
}

TEST(Wire, RejectsLengthMismatch) {
  std::vector<std::uint8_t> frame = encode(HelloMsg{0, 1});
  frame[0] += 1;  // length field no longer matches the buffer
  EXPECT_THROW(parse_frame(frame), WireError);
}

TEST(Wire, DecodersRejectTheWrongType) {
  const std::vector<std::uint8_t> hello = encode(HelloMsg{0, 1});
  EXPECT_THROW(decode_config(parse_frame(hello)), WireError);
  EXPECT_THROW(decode_step_begin(parse_frame(hello)), WireError);
  EXPECT_THROW(decode_shard_values(parse_frame(hello)), WireError);
  EXPECT_THROW(decode_filter_update(parse_frame(hello)), WireError);
  EXPECT_THROW(decode_step_ack(parse_frame(hello)), WireError);
  EXPECT_THROW(decode_shutdown(parse_frame(hello)), WireError);
}

/// Decodes `frame` with the decoder its header names and encodes the result
/// again. Throws WireError when the frame is malformed.
std::vector<std::uint8_t> reencode(const std::vector<std::uint8_t>& frame) {
  const Frame f = parse_frame(frame);
  switch (f.type) {
    case MsgType::kHello: return encode(decode_hello(f));
    case MsgType::kConfig: return encode(decode_config(f));
    case MsgType::kStepBegin: return encode(decode_step_begin(f));
    case MsgType::kShardValues: return encode(decode_shard_values(f));
    case MsgType::kFilterUpdate: return encode(decode_filter_update(f));
    case MsgType::kStepAck: return encode(decode_step_ack(f));
    case MsgType::kShutdown: return encode(decode_shutdown(f));
  }
  ADD_FAILURE() << "parse_frame passed unknown type " << to_string(f.type);
  return {};
}

TEST(Wire, MutatedFramesDecodeOrThrowWireError) {
  // One valid frame per MsgType, in MsgType order.
  const std::vector<std::vector<std::uint8_t>> corpus = {
      encode(HelloMsg{3, 8}),
      encode(ConfigMsg{sample_spec(), 6, 12}),
      encode(StepBeginMsg{987654321}),
      encode(golden_shard_values()),
      encode(FilterUpdateMsg{3, {{0, 1.5, 7.25}, {11, -1e18, 1e18}}}),
      encode(StepAckMsg{55, 4}),
      encode(ShutdownMsg{sample_stats()}),
  };

  std::vector<std::vector<std::uint8_t>> mutants;
  Rng rng(0x5EEDF00D);
  for (const std::vector<std::uint8_t>& frame : corpus) {
    for (std::size_t len = 0; len < frame.size(); ++len) {  // strict prefixes
      mutants.emplace_back(frame.begin(), frame.begin() + len);
    }
    for (std::size_t bit = 0; bit < 8 * frame.size(); ++bit) {  // bit flips
      mutants.push_back(frame);
      mutants.back()[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    for (int i = 0; i < 512; ++i) {  // random runs of 2..8 overwritten bytes
      std::vector<std::uint8_t> m = frame;
      const std::size_t at = rng.below(m.size());
      const std::size_t end = std::min(m.size(), at + 2 + rng.below(7));
      for (std::size_t j = at; j < end; ++j) {
        m[j] = static_cast<std::uint8_t>(rng.next_u64());
      }
      mutants.push_back(std::move(m));
    }
  }
  for (const std::vector<std::uint8_t>& a : corpus) {  // header of A, payload of B
    for (const std::vector<std::uint8_t>& b : corpus) {
      if (&a == &b) continue;
      std::vector<std::uint8_t> m(a.begin(), a.begin() + WireWriter::kHeaderBytes);
      m.insert(m.end(), b.begin() + WireWriter::kHeaderBytes, b.end());
      patch_length(m);
      mutants.push_back(std::move(m));
    }
  }

  // Every mutant is rejected with WireError — no other exception — or is a
  // frame the codec itself would write: a field list that reads differently
  // from how it writes fails the byte comparison.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    try {
      EXPECT_EQ(reencode(mutants[i]), mutants[i]) << "mutant " << i;
      ++accepted;
    } catch (const WireError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw a non-WireError: " << e.what();
    }
  }
  std::cout << "[ mutants  ] " << mutants.size() << " total, " << accepted
            << " accepted, " << rejected << " rejected\n";
  EXPECT_EQ(accepted + rejected, mutants.size());
  // Pinned: a decoder that turns stricter or more lenient moves the split.
  EXPECT_EQ(accepted, 6606u);
  EXPECT_EQ(rejected, 2294u);
}

TEST(Wire, ValidateRunSpecRejectsAdaptiveStreamsAndDegenerateParams) {
  EXPECT_EQ(validate_run_spec(sample_spec()), "");

  RunSpec bad = sample_spec();
  bad.stream.kind = "lb_adversary";
  EXPECT_NE(validate_run_spec(bad), "");
  bad.stream.kind = "phase_torture";
  EXPECT_NE(validate_run_spec(bad), "");

  bad = sample_spec();
  bad.stream.k = 0;
  EXPECT_NE(validate_run_spec(bad), "");

  bad = sample_spec();
  bad.stream.k = bad.stream.n;
  EXPECT_NE(validate_run_spec(bad), "");

  bad = sample_spec();
  bad.steps = 0;
  EXPECT_NE(validate_run_spec(bad), "");
}

}  // namespace
}  // namespace topkmon::net
