// AVX-512 instantiation of the serving-plane cores. This translation unit
// is compiled with -mavx512f -mavx512bw -mavx512dq (see src/CMakeLists.txt)
// on x86-64 only; kernels.cc calls into it strictly behind
// __builtin_cpu_supports checks for the same three feature flags, so no
// 512-bit instruction executes on hardware without them.
//
// Only the serving-plane cores live here — the row-wise NT product and the
// first-layer gather; the greedy scan's carry pair stays on AVX2's, which
// this level's row-wise core replays. The blocked training
// kernels (GemmNN/GemmTN/the NT transpose strategy) deliberately stay on
// the AVX2 instantiation at the kAvx512 level: their cache-blocked loop
// nests gain little from wider lanes, and sharing them keeps training-plane
// bits identical between the two x86 levels (DESIGN.md "SIMD capability
// ladder").

#include <cstddef>
#include <vector>

// The body also gates on the feature macros the flags define: when the
// compiler check fails the file still compiles (empty), and kernels.cc
// never references these symbols without PAFEAT_HAVE_AVX512_TU.
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__AVX512F__) && \
    defined(__AVX512BW__) && defined(__AVX512DQ__)

#include <immintrin.h>

// GCC 12 flags the `__m512 __Y = __Y` self-init inside _mm512_undefined_ps
// (reached via _mm512_broadcast_f32x8's pass-through operand, whose mask of
// all ones never reads it) as maybe-uninitialized (GCC PR 105593).
// Suppress the false positive for this TU so -Werror builds stay clean.
// Diagnostics only — codegen is unchanged.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace pafeat {
namespace kernels {
namespace avx512 {
namespace {

// ---------------------------------------------------------------------------
// Row-wise NT core, bit-identical to kernels_avx2.cc's GemmNTRowwise.
//
// The AVX2 core fixes every row's operation sequence as
//   (1) one 8-lane FMA accumulator walked k-major in steps of 8,
//   (2) a scalar fmaf chain over the tail,
//   (3) eight in-order lane adds into the tail sum.
// The 512-bit core below keeps exactly that sequence and only changes the
// packing: each zmm register carries TWO rows' independent 8-lane
// accumulators (row pairs in the low/high 256-bit halves), so one FMA
// advances two rows — eight rows per pass at half the FMA count of two
// AVX2 quad passes. A 512-bit lane FMA rounds identically to the same
// 256-bit lane FMA (IEEE fused multiply-add per lane, no cross-lane
// arithmetic), so widening the register is invisible to the bits; the AVX2
// and AVX-512 levels are interchangeable for fp32 serving, and
// tests/simd_dispatch_test.cc holds them to that.
//
// Feeding the row pairs is where the throughput lives (the first version of
// this core built each pair operand with two 256-bit loads plus an
// insertf32x8 and measured SLOWER than the AVX2 quad core — the shuffle
// port, not the FMAs, was the limiter):
//  * A rows are pre-interleaved once per call into a packed pair panel
//    ([row r k-block | row r+1 k-block] per 16 floats), so each pair
//    operand is ONE 512-bit load. The O(m*p) pass is re-read n times.
//  * The B block feeds both halves via vbroadcastf32x8 straight from
//    memory — a load-port uop, no shuffle.
//  * Two B rows run per pass, sharing the four A-pair loads, which is what
//    pushes the loop from load-bound to FMA-bound on dual-FMA parts.
// None of this touches any lane's accumulation chain — packing moves bytes,
// never changes which values meet which operation in which order.
//
// The 4-row and single-row remainder paths replay kernels_avx2.cc's quad
// loop and DotRow with the same intrinsics (EVEX-encoded here, same
// semantics). They are duplicated rather than shared because intrinsics
// live only in kernels_*.cc TUs (pafeat-lint `intrinsics-only-in-kernel-
// tus`) and each TU needs its own codegen flags.

constexpr int kDotLanes = 8;

// One row x one B row: the exact per-row operation sequence of every path
// below (identical to kernels_avx2.cc's DotRow).
inline float DotRow(const float* __restrict ar, const float* __restrict bj,
                    int p) {
  __m256 acc = _mm256_setzero_ps();
  int k = 0;
  for (; k + kDotLanes <= p; k += kDotLanes) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(ar + k), _mm256_loadu_ps(bj + k),
                          acc);
  }
  float s = 0.0f;
  for (; k < p; ++k) s = __builtin_fmaf(ar[k], bj[k], s);
  alignas(32) float lanes[kDotLanes];
  _mm256_store_ps(lanes, acc);
  for (int t = 0; t < kDotLanes; ++t) s += lanes[t];
  return s;
}

}  // namespace

void GemmNTRowwise(int m, int n, int p, const float* a, int lda,
                   const float* b, int ldb, float* c, int ldc) {
  const int pfull = p & ~(kDotLanes - 1);
  int i = 0;
  if (m >= 8 && pfull > 0) {
    // Pair-interleave the full k-blocks of the 8-row groups' A rows once:
    // pack[pair][16 * (k / 8) + half * 8 + t] = a[2*pair + half][k + t].
    // Thread-local scratch amortizes the allocation across a greedy scan's
    // per-step calls; scratch only, never a result carrier.
    const int m8 = m & ~7;
    static thread_local std::vector<float> a_pack;
    if (a_pack.size() < static_cast<std::size_t>(m8) * pfull) {
      a_pack.resize(static_cast<std::size_t>(m8) * pfull);
    }
    for (int r = 0; r < m8; r += 2) {
      const float* __restrict s0 = a + static_cast<std::size_t>(r) * lda;
      const float* __restrict s1 = s0 + lda;
      float* __restrict d = a_pack.data() + static_cast<std::size_t>(r) * pfull;
      for (int k = 0; k < pfull; k += kDotLanes) {
        _mm256_storeu_ps(d, _mm256_loadu_ps(s0 + k));
        _mm256_storeu_ps(d + kDotLanes, _mm256_loadu_ps(s1 + k));
        d += 2 * kDotLanes;
      }
    }
    for (; i + 8 <= m; i += 8) {
      const float* __restrict rows[8];
      float* __restrict out[8];
      for (int r = 0; r < 8; ++r) {
        rows[r] = a + static_cast<std::size_t>(i + r) * lda;
        out[r] = c + static_cast<std::size_t>(i + r) * ldc;
      }
      const float* __restrict p0 =
          a_pack.data() + static_cast<std::size_t>(i) * pfull;
      const float* __restrict p1 = p0 + 2 * static_cast<std::size_t>(pfull);
      const float* __restrict p2 = p1 + 2 * static_cast<std::size_t>(pfull);
      const float* __restrict p3 = p2 + 2 * static_cast<std::size_t>(pfull);
      int j = 0;
      for (; j + 2 <= n; j += 2) {
        const float* __restrict bj = b + static_cast<std::size_t>(j) * ldb;
        const float* __restrict bq = bj + ldb;
        __m512 v01 = _mm512_setzero_ps();
        __m512 v23 = _mm512_setzero_ps();
        __m512 v45 = _mm512_setzero_ps();
        __m512 v67 = _mm512_setzero_ps();
        __m512 w01 = _mm512_setzero_ps();
        __m512 w23 = _mm512_setzero_ps();
        __m512 w45 = _mm512_setzero_ps();
        __m512 w67 = _mm512_setzero_ps();
        int k = 0;
        for (; k < pfull; k += kDotLanes) {
          const __m512 bv = _mm512_broadcast_f32x8(_mm256_loadu_ps(bj + k));
          const __m512 bw = _mm512_broadcast_f32x8(_mm256_loadu_ps(bq + k));
          const __m512 x0 = _mm512_loadu_ps(p0 + 2 * k);
          const __m512 x1 = _mm512_loadu_ps(p1 + 2 * k);
          const __m512 x2 = _mm512_loadu_ps(p2 + 2 * k);
          const __m512 x3 = _mm512_loadu_ps(p3 + 2 * k);
          v01 = _mm512_fmadd_ps(x0, bv, v01);
          v23 = _mm512_fmadd_ps(x1, bv, v23);
          v45 = _mm512_fmadd_ps(x2, bv, v45);
          v67 = _mm512_fmadd_ps(x3, bv, v67);
          w01 = _mm512_fmadd_ps(x0, bw, w01);
          w23 = _mm512_fmadd_ps(x1, bw, w23);
          w45 = _mm512_fmadd_ps(x2, bw, w45);
          w67 = _mm512_fmadd_ps(x3, bw, w67);
        }
        float s[8] = {};
        float t8[8] = {};
        for (; k < p; ++k) {
          const float bv = bj[k];
          const float bw = bq[k];
          for (int r = 0; r < 8; ++r) {
            s[r] = __builtin_fmaf(rows[r][k], bv, s[r]);
            t8[r] = __builtin_fmaf(rows[r][k], bw, t8[r]);
          }
        }
        alignas(64) float lanes[4][2 * kDotLanes];
        alignas(64) float lanesw[4][2 * kDotLanes];
        _mm512_store_ps(lanes[0], v01);
        _mm512_store_ps(lanes[1], v23);
        _mm512_store_ps(lanes[2], v45);
        _mm512_store_ps(lanes[3], v67);
        _mm512_store_ps(lanesw[0], w01);
        _mm512_store_ps(lanesw[1], w23);
        _mm512_store_ps(lanesw[2], w45);
        _mm512_store_ps(lanesw[3], w67);
        for (int r = 0; r < 8; ++r) {
          const float* lane = lanes[r / 2] + (r % 2) * kDotLanes;
          const float* lw = lanesw[r / 2] + (r % 2) * kDotLanes;
          for (int t = 0; t < kDotLanes; ++t) s[r] += lane[t];
          for (int t = 0; t < kDotLanes; ++t) t8[r] += lw[t];
          out[r][j] += s[r];
          out[r][j + 1] += t8[r];
        }
      }
      for (; j < n; ++j) {
        const float* __restrict bj = b + static_cast<std::size_t>(j) * ldb;
        __m512 v01 = _mm512_setzero_ps();
        __m512 v23 = _mm512_setzero_ps();
        __m512 v45 = _mm512_setzero_ps();
        __m512 v67 = _mm512_setzero_ps();
        int k = 0;
        for (; k < pfull; k += kDotLanes) {
          const __m512 bv = _mm512_broadcast_f32x8(_mm256_loadu_ps(bj + k));
          v01 = _mm512_fmadd_ps(_mm512_loadu_ps(p0 + 2 * k), bv, v01);
          v23 = _mm512_fmadd_ps(_mm512_loadu_ps(p1 + 2 * k), bv, v23);
          v45 = _mm512_fmadd_ps(_mm512_loadu_ps(p2 + 2 * k), bv, v45);
          v67 = _mm512_fmadd_ps(_mm512_loadu_ps(p3 + 2 * k), bv, v67);
        }
        float s[8] = {};
        for (; k < p; ++k) {
          const float bv = bj[k];
          for (int r = 0; r < 8; ++r) {
            s[r] = __builtin_fmaf(rows[r][k], bv, s[r]);
          }
        }
        alignas(64) float lanes[4][2 * kDotLanes];
        _mm512_store_ps(lanes[0], v01);
        _mm512_store_ps(lanes[1], v23);
        _mm512_store_ps(lanes[2], v45);
        _mm512_store_ps(lanes[3], v67);
        for (int r = 0; r < 8; ++r) {
          const float* lane = lanes[r / 2] + (r % 2) * kDotLanes;
          for (int t = 0; t < kDotLanes; ++t) s[r] += lane[t];
          out[r][j] += s[r];
        }
      }
    }
  }
  for (; i + 4 <= m; i += 4) {
    const float* __restrict a0 = a + static_cast<std::size_t>(i) * lda;
    const float* __restrict a1 = a0 + lda;
    const float* __restrict a2 = a1 + lda;
    const float* __restrict a3 = a2 + lda;
    float* __restrict c0 = c + static_cast<std::size_t>(i) * ldc;
    float* __restrict c1 = c0 + ldc;
    float* __restrict c2 = c1 + ldc;
    float* __restrict c3 = c2 + ldc;
    for (int j = 0; j < n; ++j) {
      const float* __restrict bj = b + static_cast<std::size_t>(j) * ldb;
      __m256 v0 = _mm256_setzero_ps();
      __m256 v1 = _mm256_setzero_ps();
      __m256 v2 = _mm256_setzero_ps();
      __m256 v3 = _mm256_setzero_ps();
      int k = 0;
      for (; k + kDotLanes <= p; k += kDotLanes) {
        const __m256 bv = _mm256_loadu_ps(bj + k);
        v0 = _mm256_fmadd_ps(_mm256_loadu_ps(a0 + k), bv, v0);
        v1 = _mm256_fmadd_ps(_mm256_loadu_ps(a1 + k), bv, v1);
        v2 = _mm256_fmadd_ps(_mm256_loadu_ps(a2 + k), bv, v2);
        v3 = _mm256_fmadd_ps(_mm256_loadu_ps(a3 + k), bv, v3);
      }
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      for (; k < p; ++k) {
        const float bv = bj[k];
        s0 = __builtin_fmaf(a0[k], bv, s0);
        s1 = __builtin_fmaf(a1[k], bv, s1);
        s2 = __builtin_fmaf(a2[k], bv, s2);
        s3 = __builtin_fmaf(a3[k], bv, s3);
      }
      alignas(32) float l0[kDotLanes], l1[kDotLanes], l2[kDotLanes],
          l3[kDotLanes];
      _mm256_store_ps(l0, v0);
      _mm256_store_ps(l1, v1);
      _mm256_store_ps(l2, v2);
      _mm256_store_ps(l3, v3);
      for (int t = 0; t < kDotLanes; ++t) s0 += l0[t];
      for (int t = 0; t < kDotLanes; ++t) s1 += l1[t];
      for (int t = 0; t < kDotLanes; ++t) s2 += l2[t];
      for (int t = 0; t < kDotLanes; ++t) s3 += l3[t];
      c0[j] += s0;
      c1[j] += s1;
      c2[j] += s2;
      c3[j] += s3;
    }
  }
  for (; i < m; ++i) {
    const float* __restrict ar = a + static_cast<std::size_t>(i) * lda;
    float* __restrict cr = c + static_cast<std::size_t>(i) * ldc;
    for (int j = 0; j < n; ++j) {
      cr[j] += DotRow(ar, b + static_cast<std::size_t>(j) * ldb, p);
    }
  }
}

// ---------------------------------------------------------------------------
// First-layer gather core. The contract (DESIGN.md "Inference fast path") is
// per-element: every C element receives exactly one rounded accumulate per
// column-list entry, in list order, so a zero column is a bitwise no-op and
// the selected-columns product equals the full-width masked product at this
// level. Here that accumulate is a single-rounded 512-bit lane FMA across
// 16 output columns at a time (masked at the row tail); fma(0, b, c) == c
// exactly, so the no-op property is preserved. Like the levels below it,
// the gather's bits are defined per level, not across levels — row grouping
// and the j vectorization never touch any element's accumulation chain.

void GemmGatherNN(int m, int n, const float* a, int lda, const int* cols,
                  int ncols, const float* b, int ldb, float* c, int ldc) {
  const int full = n & ~15;
  const __mmask16 tail_mask =
      static_cast<__mmask16>((1u << (n - full)) - 1u);
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* __restrict a0 = a + static_cast<std::size_t>(i) * lda;
    const float* __restrict a1 = a0 + lda;
    const float* __restrict a2 = a1 + lda;
    const float* __restrict a3 = a2 + lda;
    float* __restrict c0 = c + static_cast<std::size_t>(i) * ldc;
    float* __restrict c1 = c0 + ldc;
    float* __restrict c2 = c1 + ldc;
    float* __restrict c3 = c2 + ldc;
    for (int s = 0; s < ncols; ++s) {
      const int k = cols[s];
      const float* __restrict bk = b + static_cast<std::size_t>(k) * ldb;
      const __m512 a0k = _mm512_set1_ps(a0[k]);
      const __m512 a1k = _mm512_set1_ps(a1[k]);
      const __m512 a2k = _mm512_set1_ps(a2[k]);
      const __m512 a3k = _mm512_set1_ps(a3[k]);
      int j = 0;
      for (; j < full; j += 16) {
        const __m512 bv = _mm512_loadu_ps(bk + j);
        _mm512_storeu_ps(
            c0 + j, _mm512_fmadd_ps(a0k, bv, _mm512_loadu_ps(c0 + j)));
        _mm512_storeu_ps(
            c1 + j, _mm512_fmadd_ps(a1k, bv, _mm512_loadu_ps(c1 + j)));
        _mm512_storeu_ps(
            c2 + j, _mm512_fmadd_ps(a2k, bv, _mm512_loadu_ps(c2 + j)));
        _mm512_storeu_ps(
            c3 + j, _mm512_fmadd_ps(a3k, bv, _mm512_loadu_ps(c3 + j)));
      }
      if (j < n) {
        const __m512 bv = _mm512_maskz_loadu_ps(tail_mask, bk + j);
        _mm512_mask_storeu_ps(
            c0 + j, tail_mask,
            _mm512_fmadd_ps(a0k, bv, _mm512_maskz_loadu_ps(tail_mask, c0 + j)));
        _mm512_mask_storeu_ps(
            c1 + j, tail_mask,
            _mm512_fmadd_ps(a1k, bv, _mm512_maskz_loadu_ps(tail_mask, c1 + j)));
        _mm512_mask_storeu_ps(
            c2 + j, tail_mask,
            _mm512_fmadd_ps(a2k, bv, _mm512_maskz_loadu_ps(tail_mask, c2 + j)));
        _mm512_mask_storeu_ps(
            c3 + j, tail_mask,
            _mm512_fmadd_ps(a3k, bv, _mm512_maskz_loadu_ps(tail_mask, c3 + j)));
      }
    }
  }
  for (; i < m; ++i) {
    const float* __restrict ar = a + static_cast<std::size_t>(i) * lda;
    float* __restrict cr = c + static_cast<std::size_t>(i) * ldc;
    for (int s = 0; s < ncols; ++s) {
      const int k = cols[s];
      const float* __restrict bk = b + static_cast<std::size_t>(k) * ldb;
      const __m512 ark = _mm512_set1_ps(ar[k]);
      int j = 0;
      for (; j < full; j += 16) {
        const __m512 bv = _mm512_loadu_ps(bk + j);
        _mm512_storeu_ps(
            cr + j, _mm512_fmadd_ps(ark, bv, _mm512_loadu_ps(cr + j)));
      }
      if (j < n) {
        const __m512 bv = _mm512_maskz_loadu_ps(tail_mask, bk + j);
        _mm512_mask_storeu_ps(
            cr + j, tail_mask,
            _mm512_fmadd_ps(ark, bv, _mm512_maskz_loadu_ps(tail_mask, cr + j)));
      }
    }
  }
}

}  // namespace avx512
}  // namespace kernels
}  // namespace pafeat

#endif  // x86-64 with AVX-512 codegen
