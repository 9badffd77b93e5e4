// Vectorized intra-node key search (§4.4's hot loop).
//
// A traversal resolves a key inside a multi-key node by scanning up to
// keys_per_node (tuned to 256, §5.1.2) unsorted 8-byte slots. That scan is
// the single hottest loop in search/insert/remove, so it gets SIMD kernels:
// broadcast the target, compare 2 (SSE2) / 8 (AVX2, two vectors) keys per
// iteration, movemask + tzcnt to recover the first matching index. A second
// kernel family serves the sorted-prefix nodes produced by
// Options::sorted_splits: a branch-light block search that replaces the §7
// binary search — compare a whole block for equality, and use an unsigned
// greater-than block compare to stop as soon as the prefix has passed the
// target. Unlike the old binary search it tolerates kNullKey holes anywhere
// in the prefix (nulls compare as "keep going", never as a misordered key).
//
// Dispatch is resolved once at runtime from CPUID (common/cpu_features.hpp)
// so the binary carries no ISA requirement beyond x86-64 baseline;
// UPSL_DISABLE_SIMD=1 demotes to the scalar kernels. The kernels read the
// key slots with plain (non-atomic_ref) loads: slots are naturally aligned
// 8-byte words, which x86 loads whole, and every caller already validates
// scan results against the node's split counter, so a racing slot-claim CAS
// is observed as either the old or the new key — the same outcomes the
// scalar pm_load scan produced. ThreadSanitizer cannot see vector loads as
// atomic, so a TSan build dispatches the scalar kernels, whose key reads
// (load_key) become relaxed atomic loads there: the race is by design, and
// TSan checks everything around it.
//
// Kernel contract (shared by all ISA variants, verified by the differential
// tests in tests/simd_test.cpp):
//   find_u64        first index i in [begin, end) with keys[i] == target,
//                   else -1. No ordering assumption.
//   find_sorted_u64 same, for arrays whose non-null keys are strictly
//                   ascending (nulls may appear anywhere); requires
//                   target != kNullKey (0). Returns -1 early once a key
//                   greater than target proves the target absent.
//   range_mask_u64  set bit i of the output mask for every i in [0, count)
//                   with lo <= keys[i] <= hi, and return the number of set
//                   bits. No ordering assumption; count <= 64 * mask words
//                   provided by the caller. Callers pass lo >= 1 so kNullKey
//                   holes (0) are rejected by the range check itself — the
//                   kernel needs no null special case. This is the SCAN
//                   filter: one pass over a node's key array replaces the
//                   per-slot bounds branches of the scalar scan loop.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/compiler.hpp"
#include "common/cpu_features.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UPSL_SIMD_X86 1
#include <immintrin.h>
#endif

namespace upsl::simd {

using FindFn = std::int32_t (*)(const std::uint64_t*, std::uint32_t,
                                std::uint32_t, std::uint64_t);
using RangeMaskFn = std::uint32_t (*)(const std::uint64_t*, std::uint32_t,
                                      std::uint64_t, std::uint64_t,
                                      std::uint64_t*);

// ---- scalar kernels (portable reference) ----------------------------------

/// One key-slot read of a scalar kernel (see the header comment).
UPSL_ALWAYS_INLINE std::uint64_t load_key(const std::uint64_t* p) {
#if defined(__SANITIZE_THREAD__)
  return __atomic_load_n(p, __ATOMIC_RELAXED);
#else
  return *p;
#endif
}

inline std::int32_t find_u64_scalar(const std::uint64_t* keys,
                                    std::uint32_t begin, std::uint32_t end,
                                    std::uint64_t target) {
  for (std::uint32_t i = begin; i < end; ++i)
    if (load_key(keys + i) == target) return static_cast<std::int32_t>(i);
  return -1;
}

inline std::int32_t find_sorted_u64_scalar(const std::uint64_t* keys,
                                           std::uint32_t begin,
                                           std::uint32_t end,
                                           std::uint64_t target) {
  for (std::uint32_t i = begin; i < end; ++i) {
    const std::uint64_t k = load_key(keys + i);
    if (k == target) return static_cast<std::int32_t>(i);
    if (k > target) return -1;  // nulls (0) never trip this: target >= 1
  }
  return -1;
}

inline std::uint32_t range_mask_u64_scalar(const std::uint64_t* keys,
                                           std::uint32_t count,
                                           std::uint64_t lo, std::uint64_t hi,
                                           std::uint64_t* mask) {
  for (std::uint32_t w = 0; w < (count + 63) / 64; ++w) mask[w] = 0;
  std::uint32_t matches = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t k = load_key(keys + i);
    if (k >= lo && k <= hi) {
      mask[i >> 6] |= 1ULL << (i & 63);
      ++matches;
    }
  }
  return matches;
}

// ---- x86 kernels ----------------------------------------------------------

#ifdef UPSL_SIMD_X86

/// SSE2 has no 64-bit lane equality; build it from two 32-bit compares:
/// a 64-bit lane is equal iff both of its 32-bit halves are.
inline std::int32_t find_u64_sse2(const std::uint64_t* keys,
                                  std::uint32_t begin, std::uint32_t end,
                                  std::uint64_t target) {
  const __m128i t = _mm_set1_epi64x(static_cast<long long>(target));
  std::uint32_t i = begin;
  for (; i + 2 <= end; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + i));
    const __m128i eq32 = _mm_cmpeq_epi32(v, t);
    const __m128i eq64 =
        _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    const int m = _mm_movemask_pd(_mm_castsi128_pd(eq64));
    if (m != 0)
      return static_cast<std::int32_t>(i) + __builtin_ctz(static_cast<unsigned>(m));
  }
  for (; i < end; ++i)
    if (keys[i] == target) return static_cast<std::int32_t>(i);
  return -1;
}

__attribute__((target("avx2"))) inline std::int32_t find_u64_avx2(
    const std::uint64_t* keys, std::uint32_t begin, std::uint32_t end,
    std::uint64_t target) {
  const __m256i t = _mm256_set1_epi64x(static_cast<long long>(target));
  std::uint32_t i = begin;
  // Two vectors per iteration: one combined mask test per 8 keys keeps the
  // loop at a single well-predicted branch per cache line of keys.
  for (; i + 8 <= end; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i + 4));
    const int ma = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(a, t)));
    const int mb = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(b, t)));
    const int m = ma | (mb << 4);
    if (m != 0)
      return static_cast<std::int32_t>(i) + __builtin_ctz(static_cast<unsigned>(m));
  }
  for (; i + 4 <= end; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const int m = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(a, t)));
    if (m != 0)
      return static_cast<std::int32_t>(i) + __builtin_ctz(static_cast<unsigned>(m));
  }
  for (; i < end; ++i)
    if (keys[i] == target) return static_cast<std::int32_t>(i);
  return -1;
}

__attribute__((target("avx2"))) inline std::int32_t find_sorted_u64_avx2(
    const std::uint64_t* keys, std::uint32_t begin, std::uint32_t end,
    std::uint64_t target) {
  const __m256i t = _mm256_set1_epi64x(static_cast<long long>(target));
  // AVX2 64-bit compares are signed; flipping the sign bit of both sides
  // turns them into unsigned compares. Nulls flip to INT64_MIN and so never
  // register as "greater", matching the scalar kernel's null handling.
  const __m256i bias = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
  const __m256i tb = _mm256_xor_si256(t, bias);
  std::uint32_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const int meq =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, t)));
    if (meq != 0)
      return static_cast<std::int32_t>(i) + __builtin_ctz(static_cast<unsigned>(meq));
    const int mgt = _mm256_movemask_pd(_mm256_castsi256_pd(
        _mm256_cmpgt_epi64(_mm256_xor_si256(v, bias), tb)));
    if (mgt != 0) return -1;  // prefix has passed the target; it is absent
  }
  for (; i < end; ++i) {
    const std::uint64_t k = keys[i];
    if (k == target) return static_cast<std::int32_t>(i);
    if (k > target) return -1;
  }
  return -1;
}

/// Range filter: 8 keys per iteration, one mask byte written per pair of
/// vectors. Signed compares are turned unsigned with the same sign-bit bias
/// as find_sorted_u64_avx2; in-range is the complement of (below-lo OR
/// above-hi), so each lane costs two compares, one OR and no blends.
__attribute__((target("avx2"))) inline std::uint32_t range_mask_u64_avx2(
    const std::uint64_t* keys, std::uint32_t count, std::uint64_t lo,
    std::uint64_t hi, std::uint64_t* mask) {
  const __m256i bias = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
  const __m256i lob =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(lo)), bias);
  const __m256i hib =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(hi)), bias);
  for (std::uint32_t w = 0; w < (count + 63) / 64; ++w) mask[w] = 0;
  std::uint32_t matches = 0;
  std::uint32_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i a = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)), bias);
    const __m256i b = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i + 4)),
        bias);
    const int outa = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_or_si256(
        _mm256_cmpgt_epi64(lob, a), _mm256_cmpgt_epi64(a, hib))));
    const int outb = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_or_si256(
        _mm256_cmpgt_epi64(lob, b), _mm256_cmpgt_epi64(b, hib))));
    const unsigned m =
        ~static_cast<unsigned>(outa | (outb << 4)) & 0xffu;
    // i is a multiple of 8 here, so the byte never straddles a mask word.
    mask[i >> 6] |= static_cast<std::uint64_t>(m) << (i & 63);
    matches += static_cast<unsigned>(__builtin_popcount(m));
  }
  for (; i < count; ++i) {
    const std::uint64_t k = keys[i];
    if (k >= lo && k <= hi) {
      mask[i >> 6] |= 1ULL << (i & 63);
      ++matches;
    }
  }
  return matches;
}

#endif  // UPSL_SIMD_X86

// ---- one-time runtime dispatch --------------------------------------------

/// The kernel set for one SIMD level. SSE2 keeps the scalar sorted and range
/// kernels: emulating unsigned 64-bit greater-than in SSE2 costs more than
/// it saves.
struct Kernels {
  FindFn find;
  FindFn find_sorted;
  RangeMaskFn range_mask;
  SimdLevel level;
};

namespace detail {

inline constexpr Kernels kScalarKernels{&find_u64_scalar,
                                        &find_sorted_u64_scalar,
                                        &range_mask_u64_scalar,
                                        SimdLevel::kScalar};
#ifdef UPSL_SIMD_X86
inline constexpr Kernels kSse2Kernels{&find_u64_sse2, &find_sorted_u64_scalar,
                                      &range_mask_u64_scalar,
                                      SimdLevel::kSse2};
inline constexpr Kernels kAvx2Kernels{&find_u64_avx2, &find_sorted_u64_avx2,
                                      &range_mask_u64_avx2,
                                      SimdLevel::kAvx2};
#endif

inline const Kernels* kernels_for(SimdLevel level) {
#if defined(UPSL_SIMD_X86) && !defined(__SANITIZE_THREAD__)
  if (level == SimdLevel::kAvx2) return &kAvx2Kernels;
  if (level == SimdLevel::kSse2) return &kSse2Kernels;
#else
  (void)level;
#endif
  return &kScalarKernels;
}

inline std::atomic<const Kernels*> g_kernels{nullptr};

inline const Kernels* init_kernels() {
  const Kernels* k = kernels_for(active_simd_level());
  g_kernels.store(k, std::memory_order_release);
  return k;
}

}  // namespace detail

/// The dispatched kernel set, resolved on first use (benign race: every
/// racer computes the same pointer).
UPSL_ALWAYS_INLINE const Kernels& kernels() {
  const Kernels* k = detail::g_kernels.load(std::memory_order_acquire);
  if (UPSL_UNLIKELY(k == nullptr)) k = detail::init_kernels();
  return *k;
}

/// Drop the cached dispatch so the next use re-reads UPSL_DISABLE_SIMD and
/// CPUID. Test hook; not safe while store operations are in flight.
inline void reset_dispatch_for_testing() {
  detail::g_kernels.store(nullptr, std::memory_order_release);
}

inline SimdLevel dispatched_level() { return kernels().level; }

UPSL_ALWAYS_INLINE std::int32_t find_u64(const std::uint64_t* keys,
                                         std::uint32_t begin, std::uint32_t end,
                                         std::uint64_t target) {
  return kernels().find(keys, begin, end, target);
}

UPSL_ALWAYS_INLINE std::int32_t find_sorted_u64(const std::uint64_t* keys,
                                                std::uint32_t begin,
                                                std::uint32_t end,
                                                std::uint64_t target) {
  return kernels().find_sorted(keys, begin, end, target);
}

UPSL_ALWAYS_INLINE std::uint32_t range_mask_u64(const std::uint64_t* keys,
                                                std::uint32_t count,
                                                std::uint64_t lo,
                                                std::uint64_t hi,
                                                std::uint64_t* mask) {
  return kernels().range_mask(keys, count, lo, hi, mask);
}

}  // namespace upsl::simd
