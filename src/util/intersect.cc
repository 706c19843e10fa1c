#include "util/intersect.h"

#include <algorithm>
#include <atomic>

#if defined(__x86_64__) && !defined(SGQ_NO_SIMD)
#define SGQ_INTERSECT_HAVE_AVX2 1
#include <immintrin.h>
#else
#define SGQ_INTERSECT_HAVE_AVX2 0
#endif

namespace sgq {

namespace {

#if SGQ_INTERSECT_HAVE_AVX2
bool CpuHasAvx2() { return __builtin_cpu_supports("avx2"); }
#else
bool CpuHasAvx2() { return false; }
#endif

// On by default whenever compiled in and supported by the CPU.
std::atomic<bool>& SimdFlag() {
  static std::atomic<bool> flag{CpuHasAvx2()};
  return flag;
}

// Scalar two-pointer merge over raw pointers; shared by the public merge
// kernel and the vectorized path's tail handling.
size_t MergeScalar(const uint32_t* a, size_t na, const uint32_t* b, size_t nb,
                   std::vector<uint32_t>* out) {
  size_t i = 0, j = 0;
  const size_t before = out->size();
  while (i < na && j < nb) {
    const uint32_t x = a[i], y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      out->push_back(x);
      ++i;
      ++j;
    }
  }
  return out->size() - before;
}

#if SGQ_INTERSECT_HAVE_AVX2
// Block-compare merge: the smaller list drives; each driver element is
// broadcast and compared against 8 elements of the larger list at once, the
// block advancing whenever its maximum falls below the driver. O(|a| +
// |b|/8) comparisons with no data-dependent branches inside the block test.
// Compiled with a target attribute so the translation unit itself needs no
// -mavx2; the caller gates on runtime CPU detection.
__attribute__((target("avx2"))) void IntersectAvx2(const uint32_t* a,
                                                   size_t na,
                                                   const uint32_t* b,
                                                   size_t nb,
                                                   std::vector<uint32_t>* out) {
  size_t i = 0, j = 0;
  while (i < na && j + 8 <= nb) {
    const __m256i va = _mm256_set1_epi32(static_cast<int>(a[i]));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i eq = _mm256_cmpeq_epi32(va, vb);
    if (!_mm256_testz_si256(eq, eq)) out->push_back(a[i]);
    if (b[j + 7] < a[i]) {
      j += 8;
    } else {
      ++i;
    }
  }
  MergeScalar(a + i, na - i, b + j, nb - j, out);
}
#endif

// Galloping lower bound: starting the exponential probe at `lo`, returns the
// first index in [lo, n) with b[index] >= x (or n).
size_t GallopLowerBound(const uint32_t* b, size_t n, size_t lo, uint32_t x) {
  if (lo >= n || b[lo] >= x) return lo;
  // Invariant: b[prev] < x.
  size_t prev = lo;
  size_t step = 1;
  while (lo + step < n && b[lo + step] < x) {
    prev = lo + step;
    step <<= 1;
  }
  const size_t end = std::min(lo + step + 1, n);
  return static_cast<size_t>(std::lower_bound(b + prev + 1, b + end, x) - b);
}

// Galloping costs ~2 log2(gap) comparisons per driver element vs log2(n - lo)
// for a straight binary probe of the remaining suffix; with uniformly spread
// elements (gap ≈ n/|a|) the probe wins once |a|^2 < |b|. Both advance a
// monotone cursor, so the skewed kernel picks per pair, not per element.
bool ExtremeSkew(size_t small_n, size_t large_n) {
  return static_cast<uint64_t>(small_n) * small_n < large_n;
}

size_t ProbeLowerBound(const uint32_t* b, size_t n, size_t lo, uint32_t x) {
  return static_cast<size_t>(std::lower_bound(b + lo, b + n, x) - b);
}

}  // namespace

bool IntersectSimdEnabled() {
  return SimdFlag().load(std::memory_order_relaxed);
}

void SetIntersectSimdEnabled(bool enabled) {
  SimdFlag().store(enabled && CpuHasAvx2(), std::memory_order_relaxed);
}

void IntersectMergeInto(std::span<const uint32_t> a,
                        std::span<const uint32_t> b,
                        std::vector<uint32_t>* out) {
  out->clear();
  MergeScalar(a.data(), a.size(), b.data(), b.size(), out);
}

void IntersectGallopInto(std::span<const uint32_t> small_list,
                         std::span<const uint32_t> large,
                         std::vector<uint32_t>* out) {
  out->clear();
  if (small_list.size() > large.size()) std::swap(small_list, large);
  auto* const advance = ExtremeSkew(small_list.size(), large.size())
                            ? &ProbeLowerBound
                            : &GallopLowerBound;
  size_t lo = 0;
  for (uint32_t x : small_list) {
    lo = advance(large.data(), large.size(), lo, x);
    if (lo >= large.size()) break;
    if (large[lo] == x) {
      out->push_back(x);
      ++lo;
    }
  }
}

void IntersectSimdInto(std::span<const uint32_t> a,
                       std::span<const uint32_t> b,
                       std::vector<uint32_t>* out) {
  out->clear();
  if (a.size() > b.size()) std::swap(a, b);
#if SGQ_INTERSECT_HAVE_AVX2
  if (IntersectSimdEnabled()) {
    IntersectAvx2(a.data(), a.size(), b.data(), b.size(), out);
    return;
  }
#endif
  MergeScalar(a.data(), a.size(), b.data(), b.size(), out);
}

void IntersectInto(std::span<const uint32_t> a, std::span<const uint32_t> b,
                   std::vector<uint32_t>* out, IntersectCounters* counters) {
  out->clear();
  if (a.empty() || b.empty()) return;
  if (a.size() > b.size()) std::swap(a, b);
  if (counters != nullptr) ++counters->calls;
  if (b.size() / a.size() >= kIntersectGallopRatio) {
    if (counters != nullptr) ++counters->gallop_calls;
    auto* const advance =
        ExtremeSkew(a.size(), b.size()) ? &ProbeLowerBound : &GallopLowerBound;
    size_t lo = 0;
    for (uint32_t x : a) {
      lo = advance(b.data(), b.size(), lo, x);
      if (lo >= b.size()) break;
      if (b[lo] == x) {
        out->push_back(x);
        ++lo;
      }
    }
  } else {
#if SGQ_INTERSECT_HAVE_AVX2
    if (b.size() >= kIntersectSimdMin && IntersectSimdEnabled()) {
      if (counters != nullptr) ++counters->simd_calls;
      IntersectAvx2(a.data(), a.size(), b.data(), b.size(), out);
      if (counters != nullptr) counters->output_elems += out->size();
      return;
    }
#endif
    if (counters != nullptr) ++counters->merge_calls;
    MergeScalar(a.data(), a.size(), b.data(), b.size(), out);
  }
  if (counters != nullptr) counters->output_elems += out->size();
}

bool IntersectNonEmpty(std::span<const uint32_t> a,
                       std::span<const uint32_t> b) {
  if (a.empty() || b.empty()) return false;
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() / a.size() >= kIntersectGallopRatio) {
    auto* const advance =
        ExtremeSkew(a.size(), b.size()) ? &ProbeLowerBound : &GallopLowerBound;
    size_t lo = 0;
    for (uint32_t x : a) {
      lo = advance(b.data(), b.size(), lo, x);
      if (lo >= b.size()) return false;
      if (b[lo] == x) return true;
    }
    return false;
  }
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t x = a[i], y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

void IntersectBitmapInto(std::span<const uint32_t> list,
                         std::span<const uint8_t> bitmap,
                         std::vector<uint32_t>* out) {
  out->clear();
  for (uint32_t v : list) {
    if (bitmap[v] != 0) out->push_back(v);
  }
}

void IntersectStampInto(std::span<const uint32_t> list,
                        std::span<const uint32_t> stamps, uint32_t epoch,
                        std::vector<uint32_t>* out) {
  out->clear();
  for (uint32_t v : list) {
    if (stamps[v] == epoch) out->push_back(v);
  }
}

}  // namespace sgq
