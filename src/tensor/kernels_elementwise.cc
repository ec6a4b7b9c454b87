// Elementwise cores: the Adam update, ReLU with its gradient, the fused
// first-layer finish (bias plus ReLU) and the AUC's pairwise count, plus the
// generic instantiation of the task representation's column statistics
// (kernels_stats.inl), which kernels.cc dispatches beside its AVX2 twin.
//
// Built -O3 -fno-math-errno -ffp-contract=off at the baseline ISA (see
// src/CMakeLists.txt), where GCC vectorizes each loop below and none of the
// three flags changes a result:
//  * SSE mul, add, div and sqrt are IEEE-exact per lane, and each element
//    runs the source's operations in the source's order, so a vector lane
//    and a scalar tail element compute the same bits.
//  * -fno-math-errno only drops sqrt's errno write for negative inputs; it
//    is what lets the Adam loop vectorize (at -O2 GCC's cost model keeps it
//    scalar, at -O3 the possible errno write does).
//  * -ffp-contract=off keeps every multiply and add unfused. With FMA
//    codegen on and contraction at GCC's default, beta1 * m + (1 - beta1) *
//    g becomes an FMA and the moments drift from the -O2 reference within
//    a few dozen steps. Intrinsics would not avoid that either: GCC
//    defines _mm256_mul_ps/_mm256_add_ps as vector arithmetic, which it
//    contracts too.
// The ReLU forms are written as unconditional selects: at -O3 they become a
// compare and a mask (cmpltps + andnps) instead of a branch that
// mispredicts on sign-mixed sums. At -O2 GCC 12 branches on either form.
// The pairwise count does no float arithmetic, only compares, so no flag
// can change its result; -O3 turns its inner loop into packed compares and
// integer adds, which is where its speed comes from.

#include <cmath>
#include <cstddef>

#include "tensor/kernels.h"

#define PAFEAT_STATS_NAMESPACE generic
#include "tensor/kernels_stats.inl"
#undef PAFEAT_STATS_NAMESPACE

namespace pafeat {
namespace kernels {

void AdamUpdate(const AdamCoefficients& coefficients, int n,
                const float* __restrict grad, float* __restrict m,
                float* __restrict v, float* __restrict param) {
  const float learning_rate = coefficients.learning_rate;
  const float beta1 = coefficients.beta1;
  const float beta2 = coefficients.beta2;
  const float epsilon = coefficients.epsilon;
  const float bias1 = coefficients.bias1;
  const float bias2 = coefficients.bias2;
  for (int j = 0; j < n; ++j) {
    m[j] = beta1 * m[j] + (1.0f - beta1) * grad[j];
    v[j] = beta2 * v[j] + (1.0f - beta2) * grad[j] * grad[j];
    const float m_hat = m[j] / bias1;
    const float v_hat = v[j] / bias2;
    param[j] -= learning_rate * m_hat / (std::sqrt(v_hat) + epsilon);
  }
}

void Relu(int n, float* __restrict data) {
  for (int i = 0; i < n; ++i) data[i] = data[i] < 0.0f ? 0.0f : data[i];
}

void ReluGrad(int n, const float* __restrict activated,
              float* __restrict grad) {
  for (int i = 0; i < n; ++i) grad[i] = activated[i] <= 0.0f ? 0.0f : grad[i];
}

void AddBiasRelu(int rows, int cols, const float* __restrict sum,
                 const float* __restrict bias, float* __restrict out) {
  for (int r = 0; r < rows; ++r) {
    const float* in = sum + static_cast<std::size_t>(r) * cols;
    float* row = out + static_cast<std::size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) {
      const float s = in[c] + bias[c];
      row[c] = s < 0.0f ? 0.0f : s;
    }
  }
}

long long PairwiseTwiceU(int num_pos, const float* __restrict pos,
                         int num_neg, const float* __restrict neg) {
  long long twice_u = 0;
  for (int i = 0; i < num_pos; ++i) {
    const float p = pos[i];
    // 2 [n < p] + [n == p] = [n < p] + [n <= p]; at most 2 num_neg < 2^31.
    int count = 0;
    for (int j = 0; j < num_neg; ++j) count += (neg[j] < p) + (neg[j] <= p);
    twice_u += count;
  }
  return twice_u;
}

}  // namespace kernels
}  // namespace pafeat
