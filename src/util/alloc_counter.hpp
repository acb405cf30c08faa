// Counting allocator hook — the enforcement arm of the zero-allocation
// invariant.
//
// The batched hot path (FleetPipeline::step, Simulator::step_on,
// StepSnapshot::begin_step, EngineShard::advance) is engineered so a
// steady-state step performs ZERO heap allocations: every buffer is
// preallocated by the stage that writes it (the pipeline's staging vector,
// the FaultInjector's effective vector and lookback ring, the
// WindowedValueModel's rings, TopKOrder's shadow) or sized once on first
// use, like the strict validator's filter snapshot, and reused.
// This header gives tests and benches the instrument to *prove* that instead
// of assuming it.
//
// When the library is configured with TOPKMON_COUNT_ALLOCS (the default for
// Debug builds without sanitizers — see CMakeLists.txt), alloc_counter.cpp
// replaces the global operator new/delete with thin wrappers that bump a
// thread-local counter before delegating to malloc/free. The replacement is
// process-wide, so AllocProbe deltas cover std:: containers, protocol code,
// everything. Under sanitizers the hook stays off (ASan/TSan install their
// own allocator), and alloc_counting_active() reports it so callers can skip
// assertions rather than read a counter that never moves.
//
// Overhead when enabled: one thread-local increment per allocation — cheap
// enough that the release CI leg turns it on for the invariant tests.
#pragma once

#include <cstdint>

namespace topkmon {

/// True when the counting operator new/delete replacement is compiled in.
bool alloc_counting_active();

/// Heap allocations performed by the calling thread so far (monotone;
/// frozen at 0 while the hook is inactive).
std::uint64_t thread_alloc_count();

/// Bytes requested by the calling thread so far (0 while inactive).
std::uint64_t thread_alloc_bytes();

/// Measures allocations on the current thread between construction and
/// delta(). Scope it around a step loop to assert steady-state behavior:
///
///   AllocProbe probe;
///   for (int i = 0; i < 1000; ++i) sim.step_with(v);
///   TOPKMON_ASSERT(!alloc_counting_active() || probe.delta() == 0);
class AllocProbe {
 public:
  AllocProbe()
      : start_count_(thread_alloc_count()), start_bytes_(thread_alloc_bytes()) {}

  std::uint64_t delta() const { return thread_alloc_count() - start_count_; }
  std::uint64_t delta_bytes() const { return thread_alloc_bytes() - start_bytes_; }

  void reset() {
    start_count_ = thread_alloc_count();
    start_bytes_ = thread_alloc_bytes();
  }

 private:
  std::uint64_t start_count_;
  std::uint64_t start_bytes_;
};

}  // namespace topkmon
