#include "nn/activation.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace pafeat {

void ApplyActivation(Activation act, Matrix* values) {
  ApplyActivation(act, values->data(), values->size());
}

void ApplyActivation(Activation act, float* data, int n) {
  switch (act) {
    case Activation::kLinear:
      return;
    case Activation::kRelu:
      kernels::Relu(n, data);
      return;
    case Activation::kTanh:
      for (int i = 0; i < n; ++i) data[i] = std::tanh(data[i]);
      return;
    case Activation::kSigmoid:
      for (int i = 0; i < n; ++i) data[i] = 1.0f / (1.0f + std::exp(-data[i]));
      return;
  }
}

void ApplyActivationGrad(Activation act, const Matrix& activated,
                         Matrix* grad) {
  PF_CHECK(grad->SameShape(activated));
  float* g = grad->data();
  const float* a = activated.data();
  const int n = grad->size();
  switch (act) {
    case Activation::kLinear:
      return;
    case Activation::kRelu:
      kernels::ReluGrad(n, a, g);
      return;
    case Activation::kTanh:
      for (int i = 0; i < n; ++i) g[i] *= 1.0f - a[i] * a[i];
      return;
    case Activation::kSigmoid:
      for (int i = 0; i < n; ++i) g[i] *= a[i] * (1.0f - a[i]);
      return;
  }
}

}  // namespace pafeat
