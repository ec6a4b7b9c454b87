#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace pafeat {
namespace {

// out[r] += bias for every row of a rows x cols buffer — the raw-buffer twin
// of Matrix::AddRowBroadcast (same loop, same rounding).
void AddBiasRows(int rows, int cols, const float* bias, float* out) {
  for (int r = 0; r < rows; ++r) {
    float* row = out + static_cast<std::size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

}  // namespace

Mlp::Mlp(const MlpConfig& config, Rng* rng) : config_(config) {
  PF_CHECK_GT(config.input_dim, 0);
  PF_CHECK_GT(config.output_dim, 0);
  std::vector<int> dims;
  dims.push_back(config.input_dim);
  for (int h : config.hidden_dims) {
    PF_CHECK_GT(h, 0);
    dims.push_back(h);
  }
  dims.push_back(config.output_dim);

  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    Layer layer;
    const int fan_in = dims[i];
    const int fan_out = dims[i + 1];
    // He initialization for ReLU-family trunks, Xavier otherwise.
    const float scale =
        config.hidden_activation == Activation::kRelu
            ? std::sqrt(2.0f / fan_in)
            : std::sqrt(1.0f / fan_in);
    layer.weight = Matrix::RandomNormal(fan_out, fan_in, scale, rng);
    layer.bias = Matrix::Zeros(1, fan_out);
    layer.weight_grad = Matrix::Zeros(fan_out, fan_in);
    layer.bias_grad = Matrix::Zeros(1, fan_out);
    layer.activation = (i + 2 == dims.size()) ? config.output_activation
                                              : config.hidden_activation;
    layers_.push_back(std::move(layer));
  }
}

const Matrix& Mlp::Forward(const Matrix& input) {
  PF_CHECK_EQ(input.cols(), config_.input_dim);
  const Matrix* current = &input;
  for (Layer& layer : layers_) {
    layer.input = *current;
    layer.output = layer.input.MatMulTransposed(layer.weight);
    layer.output.AddRowBroadcast(layer.bias);
    ApplyActivation(layer.activation, &layer.output);
    current = &layer.output;
  }
  return layers_.back().output;
}

Matrix Mlp::Predict(const Matrix& input) const {
  PF_CHECK_EQ(input.cols(), config_.input_dim);
  Matrix out(input.rows(), config_.output_dim);
  PredictInto(input.rows(), input.data(), InferenceArena::ThreadLocal(),
              out.data());
  return out;
}

void Mlp::PredictInto(int rows, const float* input, InferenceArena* arena,
                      float* out) const {
  PredictTailInto(0, rows, input, arena, out);
}

void Mlp::PredictTailInto(int first_layer, int rows, const float* input,
                          InferenceArena* arena, float* out) const {
  PredictTailImpl(first_layer, rows, input, arena, out, /*rowwise=*/false);
}

void Mlp::PredictBatchInto(int rows, const float* input, InferenceArena* arena,
                           float* out) const {
  PredictTailImpl(0, rows, input, arena, out, /*rowwise=*/true);
}

void Mlp::PredictTailImpl(int first_layer, int rows, const float* input,
                          InferenceArena* arena, float* out,
                          bool rowwise) const {
  PF_CHECK_GE(first_layer, 0);
  PF_CHECK_LT(first_layer, num_layers());
  PF_CHECK_GT(rows, 0);
  ArenaScope scope(arena);
  const float* current = input;
  for (int i = first_layer; i < num_layers(); ++i) {
    const Layer& layer = layers_[i];
    const int in_dim = layer.weight.cols();
    const int out_dim = layer.weight.rows();
    const std::size_t count = static_cast<std::size_t>(rows) * out_dim;
    float* next = i + 1 == num_layers() ? out : arena->Alloc(count);
    std::fill_n(next, count, 0.0f);
    if (rowwise) {
      // Batched inference plane: per-row bits independent of `rows`, so
      // each row matches its own batch-of-1 PredictInto.
      kernels::GemmNTRowwise(rows, out_dim, in_dim, current, in_dim,
                             layer.weight.data(), in_dim, next, out_dim);
    } else {
      // Same GemmNT call Matrix::MatMulTransposed makes for this shape, so
      // the allocation-free path stays bit-identical to the Matrix-based
      // one.
      kernels::GemmNT(rows, out_dim, in_dim, current, in_dim,
                      layer.weight.data(), in_dim, next, out_dim);
    }
    AddBiasRows(rows, out_dim, layer.bias.data(), next);
    ApplyActivation(layer.activation, next, static_cast<int>(count));
    current = next;
  }
}

void Mlp::PredictGathered(int rows, const float* x, int ldx, const int* cols,
                          int ncols, const Matrix& w0t, InferenceArena* arena,
                          float* out) const {
  PF_CHECK_GT(rows, 0);
  ArenaScope scope(arena);
  const std::size_t count =
      static_cast<std::size_t>(rows) * layer_output_dim(0);
  float* sum = arena->Alloc(count);
  std::fill_n(sum, count, 0.0f);
  AccumulateGathered(rows, x, ldx, cols, ncols, w0t, sum);
  FinishGathered(rows, sum, arena, out);
}

void Mlp::AccumulateGathered(int rows, const float* x, int ldx,
                             const int* cols, int ncols, const Matrix& w0t,
                             float* sum) const {
  PF_CHECK_GE(ncols, 0);  // ncols == 0: empty subset, first layer = bias only
  const int out_dim = layer_output_dim(0);
  PF_CHECK_EQ(w0t.rows(), config_.input_dim);
  PF_CHECK_EQ(w0t.cols(), out_dim);
  kernels::GemmGatherNN(rows, out_dim, x, ldx, cols, ncols, w0t.data(),
                        out_dim, sum, out_dim);
}

void Mlp::FinishGathered(int rows, const float* sum, InferenceArena* arena,
                         float* out) const {
  FinishImpl(rows, sum, arena, out, /*rowwise=*/false);
}

void Mlp::FinishBatchInto(int rows, const float* sum, InferenceArena* arena,
                          float* out) const {
  FinishImpl(rows, sum, arena, out, /*rowwise=*/true);
}

void Mlp::FinishImpl(int rows, const float* sum, InferenceArena* arena,
                     float* out, bool rowwise) const {
  PF_CHECK_GT(rows, 0);
  const Layer& first = layers_.front();
  const int out_dim = first.weight.rows();
  ArenaScope scope(arena);
  const std::size_t count = static_cast<std::size_t>(rows) * out_dim;
  float* hidden = num_layers() == 1 ? out : arena->Alloc(count);
  // The bias goes onto a copy, leaving the sum for the next query. A ReLU
  // layer does copy, bias and activation in one pass with the same bits; a
  // net whose first layer is its output keeps the three steps.
  if (first.activation == Activation::kRelu) {
    kernels::AddBiasRelu(rows, out_dim, sum, first.bias.data(), hidden);
  } else {
    std::copy(sum, sum + count, hidden);
    AddBiasRows(rows, out_dim, first.bias.data(), hidden);
    ApplyActivation(first.activation, hidden, static_cast<int>(count));
  }
  if (num_layers() > 1) {
    PredictTailImpl(1, rows, hidden, arena, out, rowwise);
  }
}

void Mlp::PredictGatheredReference(int rows, const float* x, int ldx,
                                   const Matrix& w0t, InferenceArena* arena,
                                   float* out) const {
  // The identity column list routes the full-width product through exactly
  // the code of the fast path, so the pair differs only in whether masked
  // columns are skipped or multiplied through as zeros.
  std::vector<int> all_cols(config_.input_dim);
  std::iota(all_cols.begin(), all_cols.end(), 0);
  PredictGathered(rows, x, ldx, all_cols.data(), config_.input_dim, w0t,
                  arena, out);
}

Matrix Mlp::FirstLayerWeightTransposed() const {
  return layers_.front().weight.Transposed();
}

Matrix Mlp::Backward(const Matrix& grad_output) {
  return BackwardImpl(grad_output, /*input_grad=*/true);
}

void Mlp::BackwardParams(const Matrix& grad_output) {
  BackwardImpl(grad_output, /*input_grad=*/false);
}

Matrix Mlp::BackwardImpl(const Matrix& grad_output, bool input_grad) {
  PF_CHECK(!layers_.empty());
  PF_CHECK(grad_output.SameShape(layers_.back().output));
  InferenceArena* arena = InferenceArena::ThreadLocal();
  Matrix grad = grad_output;
  for (int i = num_layers() - 1; i >= 0; --i) {
    Layer& layer = layers_[i];
    ApplyActivationGrad(layer.activation, layer.output, &grad);
    // dW += grad^T * input: the product goes to zeroed arena scratch and is
    // then added, as a fresh TransposedMatMul was (0 + t turns a -0 sum into
    // +0; accumulating into weight_grad directly would not).
    // db += column sums of grad.
    const int out_dim = layer.weight.rows();
    const int in_dim = layer.weight.cols();
    const std::size_t count = static_cast<std::size_t>(out_dim) * in_dim;
    ArenaScope scope(arena);
    float* product = arena->Alloc(count);
    std::fill_n(product, count, 0.0f);
    kernels::GemmTN(out_dim, in_dim, grad.rows(), grad.data(), out_dim,
                    layer.input.data(), in_dim, product, in_dim);
    float* weight_grad = layer.weight_grad.data();
    for (std::size_t e = 0; e < count; ++e) weight_grad[e] += product[e];
    layer.bias_grad.Add(grad.ColSums());
    if (i > 0) grad = grad.MatMul(layer.weight);
  }
  // grad is now dL/d(layer 0's pre-activation); its product with the first
  // weight is the input gradient, which only a caller that asks pays for.
  return input_grad ? grad.MatMul(layers_.front().weight) : Matrix();
}

void Mlp::ZeroGrad() {
  for (Layer& layer : layers_) {
    if (!layer.weight_grad.SameShape(layer.weight)) {
      layer.weight_grad =
          Matrix::Zeros(layer.weight.rows(), layer.weight.cols());
      layer.bias_grad = Matrix::Zeros(1, layer.bias.cols());
      continue;
    }
    layer.weight_grad.Fill(0.0f);
    layer.bias_grad.Fill(0.0f);
  }
}

void Mlp::ReleaseTrainingState() {
  for (Layer& layer : layers_) {
    layer.weight_grad = Matrix();
    layer.bias_grad = Matrix();
    layer.input = Matrix();
    layer.output = Matrix();
  }
}

std::vector<Matrix*> Mlp::Params() {
  std::vector<Matrix*> params;
  params.reserve(layers_.size() * 2);
  for (Layer& layer : layers_) {
    params.push_back(&layer.weight);
    params.push_back(&layer.bias);
  }
  return params;
}

std::vector<Matrix*> Mlp::Grads() {
  std::vector<Matrix*> grads;
  grads.reserve(layers_.size() * 2);
  for (Layer& layer : layers_) {
    grads.push_back(&layer.weight_grad);
    grads.push_back(&layer.bias_grad);
  }
  return grads;
}

void Mlp::CopyParamsFrom(const Mlp& other) {
  PF_CHECK_EQ(layers_.size(), other.layers_.size());
  for (size_t i = 0; i < layers_.size(); ++i) {
    PF_CHECK(layers_[i].weight.SameShape(other.layers_[i].weight));
    layers_[i].weight = other.layers_[i].weight;
    layers_[i].bias = other.layers_[i].bias;
  }
}

std::vector<float> Mlp::SerializeParams() const {
  std::vector<float> flat;
  flat.reserve(NumParams());
  for (const Layer& layer : layers_) {
    flat.insert(flat.end(), layer.weight.data(),
                layer.weight.data() + layer.weight.size());
    flat.insert(flat.end(), layer.bias.data(),
                layer.bias.data() + layer.bias.size());
  }
  return flat;
}

bool Mlp::DeserializeParams(const std::vector<float>& flat) {
  if (static_cast<int>(flat.size()) != NumParams()) return false;
  size_t offset = 0;
  for (Layer& layer : layers_) {
    std::copy(flat.begin() + offset, flat.begin() + offset + layer.weight.size(),
              layer.weight.data());
    offset += layer.weight.size();
    std::copy(flat.begin() + offset, flat.begin() + offset + layer.bias.size(),
              layer.bias.data());
    offset += layer.bias.size();
  }
  return true;
}

int Mlp::NumParams() const {
  int total = 0;
  for (const Layer& layer : layers_) {
    total += layer.weight.size() + layer.bias.size();
  }
  return total;
}

}  // namespace pafeat
