#include <cstddef>
#include <cstring>

// Portable instantiation of the GEMM micro-kernels, plus the portable
// row-wise NT core and its carry pair: compiled with the baseline ISA so it
// runs anywhere, selected by kernels.cc when the CPU lacks AVX2/FMA (or off
// x86 entirely).

#define PAFEAT_GEMM_NAMESPACE generic
#include "tensor/kernels_impl.inl"
#undef PAFEAT_GEMM_NAMESPACE

#include "tensor/kernels.h"

namespace pafeat {
namespace kernels {
namespace generic {

// Accumulator width of the row-wise dot core (one AVX2 register).
constexpr int kLanes = kRowwiseLanes;

void GemmNTRowwise(int m, int n, int p, const float* __restrict a, int lda,
                   const float* __restrict b, int ldb, float* __restrict c,
                   int ldc) {
  // C(i, j) += dot(A row i, B row j), kLanes-wide partial-sum accumulators.
  // Deliberately a plain 1x1 tile: wider register tiles with several
  // interleaved accumulator arrays defeat the auto-vectorizer and come out
  // scalar, and a row's operations never depend on its neighbours, so its
  // bits do not depend on m. kernels.cc's GemmNT also runs it below m = 8.
  for (int i = 0; i < m; ++i) {
    const float* __restrict ar = a + static_cast<std::size_t>(i) * lda;
    float* __restrict cr = c + static_cast<std::size_t>(i) * ldc;
    for (int j = 0; j < n; ++j) {
      const float* __restrict bj = b + static_cast<std::size_t>(j) * ldb;
      float acc[kLanes] = {};
      int k = 0;
      for (; k + kLanes <= p; k += kLanes) {
        for (int t = 0; t < kLanes; ++t) acc[t] += ar[k + t] * bj[k + t];
      }
      float s = 0.0f;
      for (; k < p; ++k) s += ar[k] * bj[k];
      for (int t = 0; t < kLanes; ++t) s += acc[t];
      cr[j] += s;
    }
  }
}

// The carry pair cuts GemmNTRowwise at a block boundary: the same lane
// count, the same separate multiply and add per lane, the same tail and
// lane-add order.

void RowwiseCarryInit(int n, int k_end, const float* a, const float* b,
                      int ldb, float* lanes) {
  for (int j = 0; j < n; ++j) {
    const float* __restrict bj = b + static_cast<std::size_t>(j) * ldb;
    float acc[kLanes] = {};
    for (int k = 0; k < k_end; k += kLanes) {
      for (int t = 0; t < kLanes; ++t) acc[t] += a[k + t] * bj[k + t];
    }
    std::memcpy(lanes + static_cast<std::size_t>(j) * kLanes, acc,
                sizeof(acc));
  }
}

void RowwiseCarryFinish(int n, int p, int k_begin, const float* a,
                        const float* b, int ldb, const float* lanes,
                        float* c) {
  for (int j = 0; j < n; ++j) {
    const float* __restrict bj = b + static_cast<std::size_t>(j) * ldb;
    float acc[kLanes];
    std::memcpy(acc, lanes + static_cast<std::size_t>(j) * kLanes,
                sizeof(acc));
    int k = k_begin;
    for (; k + kLanes <= p; k += kLanes) {
      for (int t = 0; t < kLanes; ++t) acc[t] += a[k + t] * bj[k + t];
    }
    float s = 0.0f;
    for (; k < p; ++k) s += a[k] * bj[k];
    for (int t = 0; t < kLanes; ++t) s += acc[t];
    c[j] += s;
  }
}

}  // namespace generic
}  // namespace kernels
}  // namespace pafeat
