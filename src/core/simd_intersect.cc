#include "core/simd_intersect.h"

#include <algorithm>
#include <atomic>

#if !defined(PQIDX_DISABLE_SIMD)
#if defined(__x86_64__) || defined(__i386__)
#define PQIDX_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) || defined(__ARM_NEON)
#define PQIDX_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !PQIDX_DISABLE_SIMD

namespace pqidx {
namespace {

using ContribsFn = void (*)(const int32_t*, size_t, int32_t, int32_t*,
                            int32_t*);

// Reference kernel; every SIMD variant computes exactly these values.
// The sentinel count -1 survives the min because qcount >= 0.
void ContribsScalar(const int32_t* pairs, size_t n, int32_t qcount,
                    int32_t* slots, int32_t* contribs) {
  for (size_t i = 0; i < n; ++i) {
    slots[i] = pairs[2 * i];
    contribs[i] = std::min(pairs[2 * i + 1], qcount);
  }
}

#if defined(PQIDX_SIMD_X86)

// 4 pairs (one 128-bit lane pair) per iteration.
__attribute__((target("sse4.1"))) void ContribsSse41(
    const int32_t* pairs, size_t n, int32_t qcount, int32_t* slots,
    int32_t* contribs) {
  const __m128i q = _mm_set1_epi32(qcount);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v0 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(pairs + 2 * i));      // s0 c0 s1 c1
    const __m128i v1 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(pairs + 2 * i + 4));  // s2 c2 s3 c3
    const __m128i a = _mm_shuffle_epi32(v0, _MM_SHUFFLE(3, 1, 2, 0));
    const __m128i b = _mm_shuffle_epi32(v1, _MM_SHUFFLE(3, 1, 2, 0));
    const __m128i s = _mm_unpacklo_epi64(a, b);  // s0 s1 s2 s3
    const __m128i c = _mm_unpackhi_epi64(a, b);  // c0 c1 c2 c3
    _mm_storeu_si128(reinterpret_cast<__m128i*>(slots + i), s);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(contribs + i),
                     _mm_min_epi32(c, q));
  }
  ContribsScalar(pairs + 2 * i, n - i, qcount, slots + i, contribs + i);
}

// 8 pairs (two 256-bit loads) per iteration.
__attribute__((target("avx2"))) void ContribsAvx2(
    const int32_t* pairs, size_t n, int32_t qcount, int32_t* slots,
    int32_t* contribs) {
  const __m256i q = _mm256_set1_epi32(qcount);
  // Gathers a register's even lanes (slots) into its low 128 bits and
  // its odd lanes (counts) into the high 128 bits.
  const __m256i deinterleave = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pairs + 2 * i));
    const __m256i v1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pairs + 2 * i + 8));
    const __m256i a = _mm256_permutevar8x32_epi32(v0, deinterleave);
    const __m256i b = _mm256_permutevar8x32_epi32(v1, deinterleave);
    const __m256i s = _mm256_permute2x128_si256(a, b, 0x20);  // s0..s7
    const __m256i c = _mm256_permute2x128_si256(a, b, 0x31);  // c0..c7
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(slots + i), s);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(contribs + i),
                        _mm256_min_epi32(c, q));
  }
  ContribsScalar(pairs + 2 * i, n - i, qcount, slots + i, contribs + i);
}

#endif  // PQIDX_SIMD_X86

#if defined(PQIDX_SIMD_NEON)

// 4 pairs per iteration; vld2q deinterleaves {slot, count} directly.
void ContribsNeon(const int32_t* pairs, size_t n, int32_t qcount,
                  int32_t* slots, int32_t* contribs) {
  const int32x4_t q = vdupq_n_s32(qcount);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int32x4x2_t v = vld2q_s32(pairs + 2 * i);
    vst1q_s32(slots + i, v.val[0]);
    vst1q_s32(contribs + i, vminq_s32(v.val[1], q));
  }
  ContribsScalar(pairs + 2 * i, n - i, qcount, slots + i, contribs + i);
}

#endif  // PQIDX_SIMD_NEON

bool KernelSupported(SimdKernel kernel) {
  switch (kernel) {
    case SimdKernel::kScalar:
      return true;
#if defined(PQIDX_SIMD_X86)
    case SimdKernel::kSse41:
      return __builtin_cpu_supports("sse4.1") != 0;
    case SimdKernel::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
#endif
#if defined(PQIDX_SIMD_NEON)
    case SimdKernel::kNeon:
      return true;
#endif
    default:
      return false;
  }
}

ContribsFn KernelFn(SimdKernel kernel) {
  switch (kernel) {
#if defined(PQIDX_SIMD_X86)
    case SimdKernel::kSse41:
      return &ContribsSse41;
    case SimdKernel::kAvx2:
      return &ContribsAvx2;
#endif
#if defined(PQIDX_SIMD_NEON)
    case SimdKernel::kNeon:
      return &ContribsNeon;
#endif
    default:
      return &ContribsScalar;
  }
}

SimdKernel BestKernel() {
#if defined(PQIDX_SIMD_X86)
  if (KernelSupported(SimdKernel::kAvx2)) return SimdKernel::kAvx2;
  if (KernelSupported(SimdKernel::kSse41)) return SimdKernel::kSse41;
#elif defined(PQIDX_SIMD_NEON)
  return SimdKernel::kNeon;
#endif
  return SimdKernel::kScalar;
}

struct Dispatch {
  std::atomic<SimdKernel> kernel;
  std::atomic<ContribsFn> fn;

  Dispatch() {
    const SimdKernel best = BestKernel();
    kernel.store(best, std::memory_order_relaxed);
    fn.store(KernelFn(best), std::memory_order_relaxed);
  }
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

}  // namespace

SimdKernel ActiveSimdKernel() {
  return dispatch().kernel.load(std::memory_order_relaxed);
}

const char* SimdKernelName(SimdKernel kernel) {
  switch (kernel) {
    case SimdKernel::kScalar:
      return "scalar";
    case SimdKernel::kSse41:
      return "sse4.1";
    case SimdKernel::kAvx2:
      return "avx2";
    case SimdKernel::kNeon:
      return "neon";
  }
  return "unknown";
}

bool SetSimdKernelForTesting(SimdKernel kernel) {
  if (!KernelSupported(kernel)) return false;
  dispatch().kernel.store(kernel, std::memory_order_relaxed);
  dispatch().fn.store(KernelFn(kernel), std::memory_order_relaxed);
  return true;
}

void ComputeContribs(const int32_t* pairs, size_t n, int32_t qcount,
                     int32_t* slots, int32_t* contribs) {
  dispatch().fn.load(std::memory_order_relaxed)(pairs, n, qcount, slots,
                                                contribs);
}

}  // namespace pqidx
