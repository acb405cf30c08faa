#include "util/simd.hpp"

#if defined(__x86_64__) && !defined(TOPKMON_SIMD_OFF)
#define TOPKMON_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) && !defined(TOPKMON_SIMD_OFF)
#define TOPKMON_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace topkmon::simd {

// ---------------------------------------------------------------- scalar
// The reference tier: always compiled, the only tier under TOPKMON_SIMD=OFF,
// and the oracle the vector tiers are fuzzed against. Every loop is written
// so its per-lane result is the exact expression the vector bodies compute.
namespace scalar {

std::size_t count_diff(const Value* a, const Value* b, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += a[i] != b[i];
  }
  return count;
}

std::size_t collect_nonzero(const std::uint8_t* mask, std::size_t n,
                            std::uint32_t* out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[count] = static_cast<std::uint32_t>(i);
    count += mask[i] != 0;
  }
  return count;
}

std::size_t violation_mask(const Value* values, const double* lo, const double* hi,
                           std::size_t n, std::uint8_t* out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(values[i]);
    const std::uint8_t v = x > hi[i] || x < lo[i] ? 1 : 0;
    out[i] = v;
    count += v;
  }
  return count;
}

void max_merge(Value* dst, const Value* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = dst[i] < src[i] ? src[i] : dst[i];
  }
}

Value max_value(const Value* values, std::size_t n) {
  Value m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    m = m < values[i] ? values[i] : m;
  }
  return m;
}

Value min_value(const Value* values, std::size_t n) {
  Value m = ~Value{0};
  for (std::size_t i = 0; i < n; ++i) {
    m = values[i] < m ? values[i] : m;
  }
  return m;
}

std::size_t count_lt(const Value* a, const Value* b, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += a[i] < b[i];
  }
  return count;
}

std::size_t count_eq_u32(const std::uint32_t* values, std::uint32_t v, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += values[i] == v;
  }
  return count;
}

std::size_t count_f64_ge(const Value* values, double bound, std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<double>(values[i]) >= bound;
  }
  return count;
}

std::size_t count_scaled_gt(const Value* values, double scale, double bound,
                            std::size_t n) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += scale * static_cast<double>(values[i]) > bound;
  }
  return count;
}

}  // namespace scalar

#if defined(TOPKMON_SIMD_X86)

// ------------------------------------------------------------------ AVX2
// Each body carries target("avx2") so the library builds without -mavx2 and
// the tier is chosen at run time via __builtin_cpu_supports.
#define TOPKMON_AVX2 __attribute__((target("avx2")))
namespace avx2 {

TOPKMON_AVX2 inline __m256i flip_sign(__m256i v) {
  return _mm256_xor_si256(v, _mm256_set1_epi64x(static_cast<long long>(1ULL << 63)));
}

TOPKMON_AVX2 std::size_t count_diff(const Value* a, const Value* b, std::size_t n) {
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const int eq = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(va, vb)));
    count += static_cast<std::size_t>(__builtin_popcount(~eq & 0xF));
  }
  return count + scalar::count_diff(a + i, b + i, n - i);
}

TOPKMON_AVX2 std::size_t collect_nonzero(const std::uint8_t* mask, std::size_t n,
                                         std::uint32_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    const int zeros = _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, zero));
    unsigned set = ~static_cast<unsigned>(zeros);
    while (set != 0) {
      const auto lane = static_cast<std::size_t>(__builtin_ctz(set));
      out[count++] = static_cast<std::uint32_t>(i + lane);
      set &= set - 1;
    }
  }
  for (; i < n; ++i) {
    out[count] = static_cast<std::uint32_t>(i);
    count += mask[i] != 0;
  }
  return count;
}

TOPKMON_AVX2 std::size_t violation_mask(const Value* values, const double* lo,
                                        const double* hi, std::size_t n,
                                        std::uint8_t* out) {
  const __m256i exp52 = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d offset = _mm256_castsi256_pd(exp52);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256d x =
        _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(v, exp52)), offset);
    const __m256d vlo = _mm256_loadu_pd(lo + i);
    const __m256d vhi = _mm256_loadu_pd(hi + i);
    const __m256d bad = _mm256_or_pd(_mm256_cmp_pd(x, vhi, _CMP_GT_OQ),
                                     _mm256_cmp_pd(x, vlo, _CMP_LT_OQ));
    const int mask = _mm256_movemask_pd(bad);
    out[i] = static_cast<std::uint8_t>(mask & 1);
    out[i + 1] = static_cast<std::uint8_t>((mask >> 1) & 1);
    out[i + 2] = static_cast<std::uint8_t>((mask >> 2) & 1);
    out[i + 3] = static_cast<std::uint8_t>((mask >> 3) & 1);
    count += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  return count + scalar::violation_mask(values + i, lo + i, hi + i, n - i, out + i);
}

TOPKMON_AVX2 void max_merge(Value* dst, const Value* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    // Unsigned max via sign-flipped signed compare + blend.
    const __m256i gt = _mm256_cmpgt_epi64(flip_sign(s), flip_sign(d));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_blendv_epi8(d, s, gt));
  }
  scalar::max_merge(dst + i, src + i, n - i);
}

TOPKMON_AVX2 Value max_value(const Value* values, std::size_t n) {
  Value m = 0;
  std::size_t i = 0;
  if (n >= 4) {
    __m256i acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values));
    for (i = 4; i + 4 <= n; i += 4) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
      const __m256i gt = _mm256_cmpgt_epi64(flip_sign(v), flip_sign(acc));
      acc = _mm256_blendv_epi8(acc, v, gt);
    }
    alignas(32) Value lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    m = scalar::max_value(lanes, 4);
  }
  const Value tail = scalar::max_value(values + i, n - i);
  return m < tail ? tail : m;
}

TOPKMON_AVX2 Value min_value(const Value* values, std::size_t n) {
  Value m = ~Value{0};
  std::size_t i = 0;
  if (n >= 4) {
    __m256i acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values));
    for (i = 4; i + 4 <= n; i += 4) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
      const __m256i lt = _mm256_cmpgt_epi64(flip_sign(acc), flip_sign(v));
      acc = _mm256_blendv_epi8(acc, v, lt);
    }
    alignas(32) Value lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    m = scalar::min_value(lanes, 4);
  }
  const Value tail = scalar::min_value(values + i, n - i);
  return tail < m ? tail : m;
}

TOPKMON_AVX2 std::size_t count_lt(const Value* a, const Value* b, std::size_t n) {
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const int lt = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(flip_sign(vb), flip_sign(va))));
    count += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(lt)));
  }
  return count + scalar::count_lt(a + i, b + i, n - i);
}

TOPKMON_AVX2 std::size_t count_eq_u32(const std::uint32_t* values, std::uint32_t v,
                                      std::size_t n) {
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(v));
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const int mask =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(x, needle)));
    count += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  return count + scalar::count_eq_u32(values + i, v, n - i);
}

TOPKMON_AVX2 inline __m256d to_f64_4xu64(__m256i v, __m256i exp52, __m256d offset) {
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(v, exp52)), offset);
}

TOPKMON_AVX2 std::size_t count_f64_ge(const Value* values, double bound,
                                      std::size_t n) {
  const __m256i exp52 = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d offset = _mm256_castsi256_pd(exp52);
  const __m256d vb = _mm256_set1_pd(bound);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(to_f64_4xu64(v, exp52, offset), vb, _CMP_GE_OQ));
    count += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  return count + scalar::count_f64_ge(values + i, bound, n - i);
}

TOPKMON_AVX2 std::size_t count_scaled_gt(const Value* values, double scale,
                                         double bound, std::size_t n) {
  const __m256i exp52 = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d offset = _mm256_castsi256_pd(exp52);
  const __m256d vs = _mm256_set1_pd(scale);
  const __m256d vb = _mm256_set1_pd(bound);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256d x = _mm256_mul_pd(vs, to_f64_4xu64(v, exp52, offset));
    count += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(x, vb, _CMP_GT_OQ)))));
  }
  return count + scalar::count_scaled_gt(values + i, scale, bound, n - i);
}

}  // namespace avx2
#undef TOPKMON_AVX2

#elif defined(TOPKMON_SIMD_NEON)

// ------------------------------------------------------------------ NEON
// aarch64 NEON is always available; no runtime dispatch needed. NEON has
// native unsigned 64-bit compares, so every primitive vectorizes directly.
namespace neon {

std::size_t count_diff(const Value* a, const Value* b, std::size_t n) {
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t eq = vceqq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    count += (~vgetq_lane_u64(eq, 0) & 1) + (~vgetq_lane_u64(eq, 1) & 1);
  }
  return count + scalar::count_diff(a + i, b + i, n - i);
}

std::size_t violation_mask(const Value* values, const double* lo, const double* hi,
                           std::size_t n, std::uint8_t* out) {
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t x = vcvtq_f64_u64(vld1q_u64(values + i));
    const uint64x2_t bad = vorrq_u64(vcgtq_f64(x, vld1q_f64(hi + i)),
                                     vcltq_f64(x, vld1q_f64(lo + i)));
    const std::uint8_t b0 = static_cast<std::uint8_t>(vgetq_lane_u64(bad, 0) & 1);
    const std::uint8_t b1 = static_cast<std::uint8_t>(vgetq_lane_u64(bad, 1) & 1);
    out[i] = b0;
    out[i + 1] = b1;
    count += b0 + b1;
  }
  return count + scalar::violation_mask(values + i, lo + i, hi + i, n - i, out + i);
}

void max_merge(Value* dst, const Value* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t d = vld1q_u64(dst + i);
    const uint64x2_t s = vld1q_u64(src + i);
    vst1q_u64(dst + i, vbslq_u64(vcgtq_u64(s, d), s, d));
  }
  scalar::max_merge(dst + i, src + i, n - i);
}

}  // namespace neon

#endif  // ISA families

// -------------------------------------------------------------- dispatch
namespace {

struct Impl {
  const char* name;
  std::size_t (*count_diff)(const Value*, const Value*, std::size_t);
  std::size_t (*collect_nonzero)(const std::uint8_t*, std::size_t, std::uint32_t*);
  std::size_t (*violation_mask)(const Value*, const double*, const double*,
                                std::size_t, std::uint8_t*);
  void (*max_merge)(Value*, const Value*, std::size_t);
  Value (*max_value)(const Value*, std::size_t);
  Value (*min_value)(const Value*, std::size_t);
  std::size_t (*count_lt)(const Value*, const Value*, std::size_t);
  std::size_t (*count_eq_u32)(const std::uint32_t*, std::uint32_t, std::size_t);
  std::size_t (*count_f64_ge)(const Value*, double, std::size_t);
  std::size_t (*count_scaled_gt)(const Value*, double, double, std::size_t);
};

constexpr Impl kScalarImpl = {
    "scalar",          scalar::count_diff, scalar::collect_nonzero,
    scalar::violation_mask, scalar::max_merge,  scalar::max_value,
    scalar::min_value, scalar::count_lt,   scalar::count_eq_u32,
    scalar::count_f64_ge, scalar::count_scaled_gt,
};

const Impl& select_impl() {
#if defined(TOPKMON_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) {
    static constexpr Impl kAvx2 = {
        "avx2",          avx2::count_diff, avx2::collect_nonzero,
        avx2::violation_mask, avx2::max_merge,  avx2::max_value,
        avx2::min_value, avx2::count_lt,   avx2::count_eq_u32,
        avx2::count_f64_ge, avx2::count_scaled_gt,
    };
    return kAvx2;
  }
  return kScalarImpl;  // x86-64 without AVX2
#elif defined(TOPKMON_SIMD_NEON)
  static constexpr Impl kNeon = {
      "neon",            neon::count_diff, scalar::collect_nonzero,
      neon::violation_mask,   neon::max_merge,  scalar::max_value,
      scalar::min_value, scalar::count_lt, scalar::count_eq_u32,
      scalar::count_f64_ge, scalar::count_scaled_gt,
  };
  return kNeon;
#else
  return kScalarImpl;
#endif
}

const Impl& impl() {
  static const Impl& chosen = select_impl();
  return chosen;
}

}  // namespace

const char* active_isa() { return impl().name; }

std::size_t count_diff(const Value* a, const Value* b, std::size_t n) {
  return impl().count_diff(a, b, n);
}

std::size_t collect_nonzero(const std::uint8_t* mask, std::size_t n,
                            std::uint32_t* out) {
  return impl().collect_nonzero(mask, n, out);
}

std::size_t violation_mask(const Value* values, const double* lo, const double* hi,
                           std::size_t n, std::uint8_t* out) {
  return impl().violation_mask(values, lo, hi, n, out);
}

void max_merge(Value* dst, const Value* src, std::size_t n) {
  impl().max_merge(dst, src, n);
}

Value max_value(const Value* values, std::size_t n) {
  return impl().max_value(values, n);
}

Value min_value(const Value* values, std::size_t n) {
  return impl().min_value(values, n);
}

std::size_t count_lt(const Value* a, const Value* b, std::size_t n) {
  return impl().count_lt(a, b, n);
}

std::size_t count_eq_u32(const std::uint32_t* values, std::uint32_t v, std::size_t n) {
  return impl().count_eq_u32(values, v, n);
}

std::size_t count_f64_ge(const Value* values, double bound, std::size_t n) {
  return impl().count_f64_ge(values, bound, n);
}

std::size_t count_scaled_gt(const Value* values, double scale, double bound,
                            std::size_t n) {
  return impl().count_scaled_gt(values, scale, bound, n);
}

}  // namespace topkmon::simd
