// Runtime-dispatched SIMD kernels for the lookup hot path.
//
// The lookup engine's inner loop walks a posting list of interleaved
// {slot, count} int32 pairs and accumulates min(query multiplicity,
// posting multiplicity) per candidate. Two pieces of that loop
// vectorize cleanly and are provided here:
//
//   * ComputeContribs deinterleaves a run of {slot, count} pairs and
//     clamps every count against the query multiplicity in one SIMD
//     min -- the per-entry branch-free part of the accumulation. The
//     wide-count sentinel (-1, see LookupEngine) survives the min
//     untouched (counts are positive, the clamp is >= 0), so the
//     caller patches sentinel contributions from the exact side map
//     and results stay bit-identical to the scalar path;
//   * GallopLowerBound replaces the per-tuple binary search over a
//     shard's sorted fingerprint array: query tuples arrive in
//     ascending fingerprint order, so each search gallops forward from
//     the previous match instead of bisecting the whole array. The
//     lookup engine's probes of ascending live slots into a posting
//     list (past its prefix cut) gallop the same way.
//
// Kernels are selected once at runtime (AVX2 > SSE4.1 > NEON > scalar;
// x86 detection via __builtin_cpu_supports) and every variant computes
// the same values in the same order, so which one runs never changes a
// result. Building with -DPQIDX_DISABLE_SIMD=ON compiles the scalar
// kernel only; SetSimdKernelForTesting forces a specific variant so
// tests and benches can compare them on the same machine.

#ifndef PQIDX_CORE_SIMD_INTERSECT_H_
#define PQIDX_CORE_SIMD_INTERSECT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace pqidx {

enum class SimdKernel : uint8_t {
  kScalar = 0,
  kSse41 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

// The kernel the dispatcher resolved for this process (the best variant
// the CPU supports, or whatever SetSimdKernelForTesting forced).
SimdKernel ActiveSimdKernel();
const char* SimdKernelName(SimdKernel kernel);

// Forces `kernel` for subsequent ComputeContribs calls. Returns false
// (and changes nothing) when this build or CPU does not support it.
// For tests and benches; not intended for concurrent use with lookups.
bool SetSimdKernelForTesting(SimdKernel kernel);

// Deinterleaves `n` {slot, count} int32 pairs from `pairs` (the posting
// arena layout) into `slots` and writes
//   contribs[i] = min(count_i, qcount)
// for each. `qcount` must be the query multiplicity clamped to
// [0, INT32_MAX]; counts above INT32_MAX are stored as the sentinel -1
// and come out as -1 (the only negative contribution possible), for the
// caller to resolve exactly. Dispatches to the active SIMD kernel.
void ComputeContribs(const int32_t* pairs, size_t n, int32_t qcount,
                     int32_t* slots, int32_t* contribs);

// First index in `data[0, n)` at or after `begin` whose key_of(element)
// is >= `target`, for data ascending by key: lower_bound semantics, but
// galloping forward from `begin` (doubling steps, then a binary search
// inside the final gap), so a run of searches with ascending targets
// costs O(log gap) each instead of O(log n).
template <typename T, typename Key, typename KeyOf>
size_t GallopLowerBound(const T* data, size_t n, size_t begin, Key target,
                        KeyOf key_of) {
  if (begin >= n || !(key_of(data[begin]) < target)) return begin;
  // Invariant: key_of(data[lo]) < target. Double the step until it
  // overshoots.
  size_t lo = begin;
  size_t step = 1;
  while (lo + step < n && key_of(data[lo + step]) < target) {
    lo += step;
    step <<= 1;
  }
  const size_t hi = std::min(n, lo + step);
  return static_cast<size_t>(
      std::lower_bound(data + lo + 1, data + hi, target,
                       [&](const T& element, const Key& key) {
                         return key_of(element) < key;
                       }) -
      data);
}

// GallopLowerBound over an array of the keys themselves (a shard's
// sorted fingerprints).
inline size_t GallopLowerBound(const uint64_t* data, size_t n, size_t begin,
                               uint64_t target) {
  return GallopLowerBound(data, n, begin, target,
                          [](uint64_t key) { return key; });
}

}  // namespace pqidx

#endif  // PQIDX_CORE_SIMD_INTERSECT_H_
