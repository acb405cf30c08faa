// Portable SIMD lane abstraction for the churn-path step kernel.
//
// The batched hot path's non-quiescent cost is a handful of dense passes
// over the fleet's SoA arrays: diffing the new observation vector against a
// shadow copy, checking every value against its filter bounds, merging
// window rings, and min/max/range scans. Each is trivially data-parallel;
// this header exposes them as flat-array primitives so the model/sim/faults
// layers never touch an intrinsic.
//
// Dispatch has two stages:
//   * compile time — AVX2 bodies are built on x86-64 (they carry
//     `target("avx2")` attributes, so the translation unit itself needs no
//     -mavx2), NEON on aarch64, and a plain scalar body everywhere. The
//     TOPKMON_SIMD=OFF CMake toggle (compile definition TOPKMON_SIMD_OFF)
//     forces the scalar body alone — the CI scalar leg runs the differential
//     fuzz suite against it to prove the vector paths are bit-identical.
//   * run time — on x86-64 the implementation table is chosen once per
//     process via __builtin_cpu_supports("avx2"): AVX2 CPUs get the vector
//     bodies, older x86-64 CPUs the scalar ones.
//
// Every primitive is *exact*: integer compares, IEEE double compares and
// max/min merges have one correct answer per lane, so the scalar and vector
// paths return bit-identical results by construction (fuzzed in
// tests/test_simd.cpp, and end-to-end by the differential harness).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#include "model/types.hpp"

namespace topkmon::simd {

/// Allocator for arrays the lane kernels stream over every step: 64-byte
/// (cache-line) alignment, so no vector load straddles two lines. With the
/// heap's 16-byte alignment a kernel's speed would depend on where the
/// buffer happens to land.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }

  template <class U>
  bool operator==(const CacheLineAllocator<U>&) const {
    return true;
  }
};

/// The lane implementation serving this process: "avx2", "neon" or
/// "scalar". Decided once (CPUID on x86-64); "scalar" always under
/// TOPKMON_SIMD=OFF.
const char* active_isa();

/// Number of values in a vs b that differ (TopKOrder's per-step diff pass).
std::size_t count_diff(const Value* a, const Value* b, std::size_t n);

/// Writes the indices i with mask[i] != 0 into `out` (caller guarantees
/// room for n entries) and returns how many were written, ascending — the
/// violation sweep's active list from the per-node violation bytes.
std::size_t collect_nonzero(const std::uint8_t* mask, std::size_t n,
                            std::uint32_t* out);

/// Per-lane filter-bound violation mask over SoA bounds: out[i] = 1 iff
/// (double)v[i] > hi[i] or (double)v[i] < lo[i], else 0. Returns the number
/// of violating lanes. Values must be ≤ kMaxObservableValue (2^48), so the
/// u64→double conversion is exact in every lane. Comparisons are IEEE
/// doubles — bit-identical to Filter::check on every lane.
std::size_t violation_mask(const Value* values, const double* lo, const double* hi,
                           std::size_t n, std::uint8_t* out);

/// Elementwise maximum merge: dst[i] = max(dst[i], src[i]) — the window-ring
/// row merge.
void max_merge(Value* dst, const Value* src, std::size_t n);

/// Maximum over a value array (0 for n = 0) — range guard scans.
Value max_value(const Value* values, std::size_t n);

/// Minimum over a value array (~0 for n = 0).
Value min_value(const Value* values, std::size_t n);

/// Lanes with a[i] < b[i] — 0 means a dominates b everywhere (the window
/// fast path's "fresh value pops every deque" test).
std::size_t count_lt(const Value* a, const Value* b, std::size_t n);

/// Lanes with values[i] == v — n means the array is constant at v (uniform
/// ring-slot / deque-length tests).
std::size_t count_eq_u32(const std::uint32_t* values, std::uint32_t v, std::size_t n);

/// ε-neighborhood partition scans (the scan-mode σ(t) of Oracle::sigma_scan).
/// Lanes with (double)values[i] >= bound — the "not clearly smaller" count.
/// Values must be ≤ kMaxObservableValue for exact lane conversion.
std::size_t count_f64_ge(const Value* values, double bound, std::size_t n);

/// Lanes with scale·(double)values[i] > bound — the "clearly larger" count,
/// with the multiplication performed per lane exactly as the scalar
/// ε-helpers write it. Values must be ≤ kMaxObservableValue.
std::size_t count_scaled_gt(const Value* values, double scale, double bound,
                            std::size_t n);

}  // namespace topkmon::simd
