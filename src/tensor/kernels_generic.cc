#include <cstddef>
#include <cstring>

// Portable instantiation of the GEMM micro-kernels: compiled with the
// baseline ISA so it runs anywhere, selected by kernels.cc when the CPU
// lacks AVX2/FMA (or off x86 entirely).

#define PAFEAT_GEMM_NAMESPACE generic
#include "tensor/kernels_impl.inl"
#undef PAFEAT_GEMM_NAMESPACE

#include "tensor/kernels.h"

namespace pafeat {
namespace kernels {
namespace generic {

// The carry pair cuts the generic row-wise core (kernels_impl.inl's GemmNT
// dot loop) at a block boundary: the same lane count, the same separate
// multiply and add per lane, the same tail and lane-add order.
static_assert(kRowwiseLanes == kLanes);

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
