// Adaptive sorted-set intersection kernels for the enumeration hot loop.
//
// Every operand is a strictly-increasing (duplicate-free) sequence of 32-bit
// ids — adjacency lists, candidate sets Φ(u), and index posting lists all
// share that shape, so one kernel family serves the backtracking extension
// step, CFL's candidate-space refinement, and the mined-path posting
// intersection.
//
// Three kernels plus a dispatcher:
//   * IntersectMergeInto   — linear two-pointer merge, O(|a| + |b|); best
//                            when the inputs are of comparable size.
//   * IntersectGallopInto  — the smaller list drives, galloping + binary
//                            probe into the larger, O(|small| log |large|);
//                            best for skewed size ratios.
//   * vectorized merge     — an AVX2 block-compare path used by the
//                            dispatcher for comparable sizes when the CPU
//                            supports it (runtime detection; the
//                            -DSGQ_NO_SIMD=ON configure option, or
//                            SetIntersectSimdEnabled() at run time, force
//                            the scalar fallback).
//   * IntersectInto        — adaptive: picks galloping when
//                            |large| / |small| >= kIntersectGallopRatio,
//                            else the (vectorized when possible) merge.
// Plus the dense-operand variants used when one side is a membership
// structure rather than a list:
//   * IntersectBitmapInto  — list vs byte-bitmap.
//   * IntersectStampInto   — list vs epoch-stamped array (the workspace's
//                            clear-free membership rows).
//   * IntersectNonEmpty    — adaptive early-exit emptiness test.
//
// All *Into variants clear `out` (keeping capacity) before writing, so
// per-depth scratch buffers pooled in a MatchWorkspace fill allocation-free
// once warm. Outputs are always sorted ascending, which keeps enumeration
// order — and therefore embedding order — identical across kernels.
#ifndef SGQ_UTIL_INTERSECT_H_
#define SGQ_UTIL_INTERSECT_H_

#include <cstdint>
#include <span>
#include <vector>

namespace sgq {

// Size ratio at or above which the dispatcher switches from merge to
// galloping. Galloping costs ~|small| * log |large| comparisons vs the
// merge's |small| + |large|; the crossover sits near |large|/|small| ≈
// log |large|, and 16 is a safe, branch-predictable threshold for the
// list sizes this system sees (tens to tens of thousands).
inline constexpr size_t kIntersectGallopRatio = 16;

// Minimum larger-operand size for the vectorized merge; below this the
// setup cost exceeds the scalar loop.
inline constexpr size_t kIntersectSimdMin = 16;

// Per-call kernel accounting, aggregated into EnumerateResult/QueryStats.
struct IntersectCounters {
  uint64_t calls = 0;         // adaptive dispatches
  uint64_t merge_calls = 0;   // resolved to the scalar linear merge
  uint64_t gallop_calls = 0;  // resolved to the galloping kernel
  uint64_t simd_calls = 0;    // resolved to the vectorized merge
  uint64_t output_elems = 0;  // total elements produced

  void Add(const IntersectCounters& other) {
    calls += other.calls;
    merge_calls += other.merge_calls;
    gallop_calls += other.gallop_calls;
    simd_calls += other.simd_calls;
    output_elems += other.output_elems;
  }
};

// True when the vectorized path is compiled in, the CPU supports it, and it
// has not been disabled by SetIntersectSimdEnabled().
bool IntersectSimdEnabled();

// Runtime override, primarily for tests and benchmarks that compare the
// vector and scalar paths in one process. Enabling has no effect when the
// CPU lacks support or the build defined SGQ_NO_SIMD.
void SetIntersectSimdEnabled(bool enabled);

// --- list-vs-list kernels ---------------------------------------------------

// Linear two-pointer merge.
void IntersectMergeInto(std::span<const uint32_t> a,
                        std::span<const uint32_t> b,
                        std::vector<uint32_t>* out);

// Galloping probe of `small_list` into `large`; callers need not pre-order
// the operands (the kernel swaps internally).
void IntersectGallopInto(std::span<const uint32_t> small_list,
                         std::span<const uint32_t> large,
                         std::vector<uint32_t>* out);

// Vectorized merge when available, else the scalar merge. Exposed for the
// property tests and microbenchmarks; the dispatcher calls it internally.
void IntersectSimdInto(std::span<const uint32_t> a,
                       std::span<const uint32_t> b,
                       std::vector<uint32_t>* out);

// Adaptive dispatcher. `counters` may be null.
void IntersectInto(std::span<const uint32_t> a, std::span<const uint32_t> b,
                   std::vector<uint32_t>* out,
                   IntersectCounters* counters = nullptr);

// Adaptive early-exit test: true iff the operands share an element.
bool IntersectNonEmpty(std::span<const uint32_t> a,
                       std::span<const uint32_t> b);

// --- list-vs-dense-operand kernels ------------------------------------------

// Keeps the elements v of `list` with bitmap[v] != 0. The bitmap must cover
// every id in `list`.
void IntersectBitmapInto(std::span<const uint32_t> list,
                         std::span<const uint8_t> bitmap,
                         std::vector<uint32_t>* out);

// Keeps the elements v of `list` with stamps[v] == epoch — the clear-free
// membership-row form used by MatchWorkspace (a row is "set" by stamping the
// current epoch, and wholesale-cleared by bumping the epoch).
void IntersectStampInto(std::span<const uint32_t> list,
                        std::span<const uint32_t> stamps, uint32_t epoch,
                        std::vector<uint32_t>* out);

}  // namespace sgq

#endif  // SGQ_UTIL_INTERSECT_H_
