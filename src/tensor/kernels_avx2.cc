// AVX2+FMA instantiation of the GEMM micro-kernels. This translation unit
// is compiled with -mavx2 -mfma (see src/CMakeLists.txt) on x86-64 only;
// kernels.cc calls into it strictly behind a __builtin_cpu_supports check,
// so no AVX2 instruction executes on hardware without it.

#include <cstddef>

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#define PAFEAT_GEMM_NAMESPACE avx2
#include "tensor/kernels_impl.inl"
#undef PAFEAT_GEMM_NAMESPACE

// ---------------------------------------------------------------------------
// Row-wise NT core for the batched inference plane (DESIGN.md "Batched
// inference plane").
//
// Written with explicit intrinsics rather than in kernels_impl.inl, because
// the plane's contract is stronger than "fast": every output row must carry
// bits *independent of the batch size m* so a batched Q query row equals the
// same observation's batch-of-1 query. A portable interleaved loop cannot
// promise that — under -mfma GCC contracts a single-row dot loop into packed
// FMA but leaves a multi-row interleave uncontracted, so the two round
// differently. Intrinsics remove the compiler's contraction discretion:
// every row, on every path below, is exactly
//   (1) one 8-lane FMA accumulator walked k-major in steps of 8,
//   (2) a scalar fmaf chain over the tail,
//   (3) eight in-order lane adds into the tail sum.
//
// The 4-row interleave exists for instruction-level parallelism, not
// threading: four independent FMA chains hide the FMA latency a single
// accumulator serializes on, and the shared B-row load amortizes the stream
// of B — this is where the plane's step-inference speedup comes from on a
// single executor. Rows past the quads (all of a one-row query, so every
// greedy step) interleave four outputs instead, sharing each load of the
// row. Interleaving only changes *when* a row's operations issue, never
// their per-row order, so quad rows, four-output rows and single outputs
// (DotRow) are bit-identical — which also makes row-panel pool splits at
// any boundary safe.

namespace pafeat {
namespace kernels {
namespace avx2 {
namespace {

constexpr int kDotLanes = 8;

// Step (1) of the per-row sequence over the full blocks [k, k_end),
// continuing from `acc`.
inline __m256 DotBlocks(const float* __restrict ar,
                        const float* __restrict bj, int k, int k_end,
                        __m256 acc) {
  for (; k < k_end; k += kDotLanes) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(ar + k), _mm256_loadu_ps(bj + k),
                          acc);
  }
  return acc;
}

// Steps (2) and (3): the scalar tail over [k, p) from 0, then the lane adds.
inline float DotTail(const float* __restrict ar, const float* __restrict bj,
                     int k, int p, __m256 acc) {
  float s = 0.0f;
  for (; k < p; ++k) s = __builtin_fmaf(ar[k], bj[k], s);
  alignas(32) float lanes[kDotLanes];
  _mm256_store_ps(lanes, acc);
  for (int t = 0; t < kDotLanes; ++t) s += lanes[t];
  return s;
}

// One row x one B row, the exact per-row operation sequence of the quad
// loop below (and therefore of any batch size).
inline float DotRow(const float* __restrict ar, const float* __restrict bj,
                    int p) {
  const int pfull = p & ~(kDotLanes - 1);
  return DotTail(ar, bj, pfull, p,
                 DotBlocks(ar, bj, 0, pfull, _mm256_setzero_ps()));
}

// One row x four consecutive B rows, added into c[0..3]: DotRow's sequence
// for each output, the four chains interleaved so they share each load of
// the row and hide the FMA latency one chain serializes on.
inline void DotRowFour(const float* __restrict ar, const float* __restrict b,
                       int ldb, int p, float* __restrict c) {
  const float* __restrict b0 = b;
  const float* __restrict b1 = b0 + ldb;
  const float* __restrict b2 = b1 + ldb;
  const float* __restrict b3 = b2 + ldb;
  __m256 v0 = _mm256_setzero_ps();
  __m256 v1 = _mm256_setzero_ps();
  __m256 v2 = _mm256_setzero_ps();
  __m256 v3 = _mm256_setzero_ps();
  int k = 0;
  for (; k + kDotLanes <= p; k += kDotLanes) {
    const __m256 av = _mm256_loadu_ps(ar + k);
    v0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + k), v0);
    v1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + k), v1);
    v2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + k), v2);
    v3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + k), v3);
  }
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  for (; k < p; ++k) {
    const float x = ar[k];
    s0 = __builtin_fmaf(x, b0[k], s0);
    s1 = __builtin_fmaf(x, b1[k], s1);
    s2 = __builtin_fmaf(x, b2[k], s2);
    s3 = __builtin_fmaf(x, b3[k], s3);
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
  c[0] += s0;
  c[1] += s1;
  c[2] += s2;
  c[3] += s3;
}

// In place: afterwards v[t] holds lane t of each input, v[t][j] = old
// v[j][t]. Pure data movement.
inline void Transpose8x8(__m256* v) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
  const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
  const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
  const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
  const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  v[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  v[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  v[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  v[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  v[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  v[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  v[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  v[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

}  // namespace

void GemmNTRowwise(int m, int n, int p, const float* a, int lda,
                   const float* b, int ldb, float* c, int ldc) {
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
  // Rows past the quads (every row of a one-row query) take four outputs
  // per pass instead.
  for (; i < m; ++i) {
    const float* __restrict ar = a + static_cast<std::size_t>(i) * lda;
    float* __restrict cr = c + static_cast<std::size_t>(i) * ldc;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      DotRowFour(ar, b + static_cast<std::size_t>(j) * ldb, ldb, p, cr + j);
    }
    for (; j < n; ++j) {
      cr[j] += DotRow(ar, b + static_cast<std::size_t>(j) * ldb, p);
    }
  }
}

// The carry pair (kernels.h) cuts DotRow at a block boundary.
void RowwiseCarryInit(int n, int k_end, const float* a, const float* b,
                      int ldb, float* lanes) {
  for (int j = 0; j < n; ++j) {
    _mm256_storeu_ps(lanes + static_cast<std::size_t>(j) * kDotLanes,
                     DotBlocks(a, b + static_cast<std::size_t>(j) * ldb, 0,
                               k_end, _mm256_setzero_ps()));
  }
}

// Eight outputs per pass: each continues its carried lanes over the blocks
// as DotBlocks does, lane j of one vector runs output j's scalar tail (the
// same fused chain from +0), and the 8x8 transpose lets that vector take
// each output's lanes 0 to 7 in order. Outputs past the last eight take
// DotTail as before.
void RowwiseCarryFinish(int n, int p, int k_begin, const float* a,
                        const float* b, int ldb, const float* lanes,
                        float* c) {
  const int pfull = p & ~(kDotLanes - 1);
  int j = 0;
  for (; j + kDotLanes <= n; j += kDotLanes) {
    const float* bj[kDotLanes];
    __m256 v[kDotLanes];
    for (int o = 0; o < kDotLanes; ++o) {
      bj[o] = b + static_cast<std::size_t>(j + o) * ldb;
      v[o] = _mm256_loadu_ps(lanes +
                             static_cast<std::size_t>(j + o) * kDotLanes);
    }
    for (int k = k_begin; k < pfull; k += kDotLanes) {
      const __m256 av = _mm256_loadu_ps(a + k);
      for (int o = 0; o < kDotLanes; ++o) {
        v[o] = _mm256_fmadd_ps(av, _mm256_loadu_ps(bj[o] + k), v[o]);
      }
    }
    __m256 s = _mm256_setzero_ps();
    for (int k = pfull; k < p; ++k) {
      const __m256 bk =
          _mm256_setr_ps(bj[0][k], bj[1][k], bj[2][k], bj[3][k], bj[4][k],
                         bj[5][k], bj[6][k], bj[7][k]);
      s = _mm256_fmadd_ps(_mm256_set1_ps(a[k]), bk, s);
    }
    Transpose8x8(v);
    for (int t = 0; t < kDotLanes; ++t) s = _mm256_add_ps(s, v[t]);
    _mm256_storeu_ps(c + j, _mm256_add_ps(_mm256_loadu_ps(c + j), s));
  }
  for (; j < n; ++j) {
    const float* bj = b + static_cast<std::size_t>(j) * ldb;
    const __m256 carried =
        _mm256_loadu_ps(lanes + static_cast<std::size_t>(j) * kDotLanes);
    c[j] += DotTail(a, bj, pfull, p,
                    DotBlocks(a, bj, k_begin, pfull, carried));
  }
}

}  // namespace avx2
}  // namespace kernels
}  // namespace pafeat

#endif  // x86-64
