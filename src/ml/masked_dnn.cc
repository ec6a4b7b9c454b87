#include "ml/masked_dnn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "ml/metrics.h"
#include "nn/optimizer.h"

namespace pafeat {

MaskedDnnClassifier::MaskedDnnClassifier(const MaskedDnnConfig& config)
    : config_(config) {}

Matrix MaskedDnnClassifier::BuildMaskedBatch(const Matrix& features,
                                             const std::vector<int>& rows,
                                             const FeatureMask& mask) const {
  const int m = features.cols();
  Matrix batch(static_cast<int>(rows.size()), m);
  if (mask.empty()) {
    for (int i = 0; i < batch.rows(); ++i) {
      std::memcpy(batch.Row(i), features.Row(rows[i]),
                  static_cast<std::size_t>(m) * sizeof(float));
    }
    return batch;
  }
  PF_CHECK_EQ(static_cast<int>(mask.size()), m);
  for (int i = 0; i < batch.rows(); ++i) {
    const float* src = features.Row(rows[i]);
    float* dst = batch.Row(i);
    for (int c = 0; c < m; ++c) {
      dst[c] = mask[c] ? src[c] : 0.0f;
    }
  }
  return batch;
}

void MaskedDnnClassifier::Fit(const Matrix& features,
                              const std::vector<float>& labels,
                              const std::vector<int>& rows, Rng* rng) {
  PF_CHECK(!rows.empty());
  const int m = features.cols();

  MlpConfig net_config;
  net_config.input_dim = m;
  net_config.hidden_dims = config_.hidden_dims;
  net_config.output_dim = 1;
  net_config.output_activation = Activation::kSigmoid;
  net_ = std::make_unique<Mlp>(net_config, rng);
  w0t_ = Matrix();
  all_cols_.resize(m);
  std::iota(all_cols_.begin(), all_cols_.end(), 0);

  AdamOptimizer optimizer(config_.learning_rate);
  std::vector<int> order = rows;
  const int batch_size = std::max(1, config_.batch_size);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng->Shuffle(&order);
    for (size_t start = 0; start < order.size(); start += batch_size) {
      const size_t end = std::min(order.size(), start + batch_size);
      const std::vector<int> batch_rows(order.begin() + start,
                                        order.begin() + end);

      // Random feature mask per batch: with probability 1/2 train on the
      // full feature vector, otherwise drop features i.i.d. with a keep
      // probability drawn from [min_keep, 1].
      FeatureMask mask;
      if (rng->Bernoulli(0.5)) {
        const double keep = rng->Uniform(config_.min_keep, 1.0);
        mask.assign(m, 0);
        int kept = 0;
        for (int c = 0; c < m; ++c) {
          if (rng->Bernoulli(keep)) {
            mask[c] = 1;
            ++kept;
          }
        }
        if (kept == 0) mask[rng->UniformInt(m)] = 1;
      }

      const Matrix batch = BuildMaskedBatch(features, batch_rows, mask);
      const Matrix& probs = net_->Forward(batch);

      // Binary cross-entropy gradient wrt the sigmoid output:
      // dL/dp = (p - y) / (p (1 - p)) / B; combined with the sigmoid
      // derivative in Backward this yields the standard (p - y) / B.
      Matrix grad(probs.rows(), 1);
      const float inv_batch = 1.0f / probs.rows();
      for (int i = 0; i < probs.rows(); ++i) {
        const float p = std::clamp(probs.At(i, 0), 1e-6f, 1.0f - 1e-6f);
        const float y = labels[batch_rows[i]];
        grad.At(i, 0) = inv_batch * (p - y) / (p * (1.0f - p));
      }
      net_->ZeroGrad();
      net_->BackwardParams(grad);
      optimizer.Step(net_->Params(), net_->Grads());
    }
  }
  // The net is frozen from here on; prepare the gather kernel's operand once
  // so every masked query skips the transpose.
  w0t_ = net_->FirstLayerWeightTransposed();
}

std::vector<float> MaskedDnnClassifier::Predict(const Matrix& features,
                                                const std::vector<int>& rows,
                                                const FeatureMask& mask) const {
  return PredictBlock(features.SelectRows(rows), mask);
}

std::vector<float> MaskedDnnClassifier::PredictBlock(
    const Matrix& block, const FeatureMask& mask,
    FirstLayerCarry* carry) const {
  PF_CHECK(net_ != nullptr);
  const int m = block.cols();
  PF_CHECK_EQ(m, net_->config().input_dim);
  const int rows = block.rows();
  std::vector<float> out(rows);
  if (rows == 0) return out;

  if (!mask.empty()) {
    PF_CHECK_EQ(static_cast<int>(mask.size()), m);
  }
  // An all-zero mask is legal (the empty subset): the gather list is empty
  // and the first layer reduces to bias + activation, exactly matching a
  // fully zero-masked input.
  std::vector<int> selected = mask.empty() ? all_cols_ : MaskToIndices(mask);

  // The carried sum is the gather over carry->cols; when those columns open
  // the selected list, folding in the rest replays the one-pass chain
  // exactly (Mlp::AccumulateGathered). Anything else restarts from zero.
  FirstLayerCarry fresh;
  if (carry == nullptr) carry = &fresh;
  const std::size_t count =
      static_cast<std::size_t>(rows) * net_->layer_output_dim(0);
  if (carry->sum.size() != count || carry->cols.size() > selected.size() ||
      !std::equal(carry->cols.begin(), carry->cols.end(), selected.begin())) {
    carry->cols.clear();
    carry->sum.assign(count, 0.0f);
  }
  const int done = static_cast<int>(carry->cols.size());
  net_->AccumulateGathered(rows, block.data(), m, selected.data() + done,
                           static_cast<int>(selected.size()) - done, w0t_,
                           carry->sum.data());
  carry->cols.swap(selected);

  InferenceArena* arena = InferenceArena::ThreadLocal();
  ArenaScope scope(arena);
  float* probs = arena->Alloc(static_cast<std::size_t>(rows));
  net_->FinishGathered(rows, carry->sum.data(), arena, probs);
  std::copy(probs, probs + rows, out.begin());
  return out;
}

std::vector<float> MaskedDnnClassifier::PredictBlockReference(
    const Matrix& block, const FeatureMask& mask) const {
  PF_CHECK(net_ != nullptr);
  PF_CHECK_EQ(block.cols(), net_->config().input_dim);
  std::vector<int> rows(block.rows());
  std::iota(rows.begin(), rows.end(), 0);
  const Matrix masked = BuildMaskedBatch(block, rows, mask);
  std::vector<float> out(block.rows());
  if (out.empty()) return out;
  InferenceArena* arena = InferenceArena::ThreadLocal();
  ArenaScope scope(arena);
  float* probs = arena->Alloc(static_cast<std::size_t>(masked.rows()));
  net_->PredictGatheredReference(masked.rows(), masked.data(), masked.cols(),
                                 w0t_, arena, probs);
  std::copy(probs, probs + masked.rows(), out.begin());
  return out;
}

double MaskedDnnClassifier::EvaluateAucBlock(
    const Matrix& block, const std::vector<float>& block_labels,
    const FeatureMask& mask, FirstLayerCarry* carry) const {
  PF_CHECK_EQ(static_cast<int>(block_labels.size()), block.rows());
  return AucScore(PredictBlock(block, mask, carry), block_labels);
}

double MaskedDnnClassifier::EvaluateAuc(const Matrix& features,
                                        const std::vector<float>& labels,
                                        const std::vector<int>& rows,
                                        const FeatureMask& mask) const {
  const std::vector<float> scores = Predict(features, rows, mask);
  std::vector<float> subset_labels(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) subset_labels[i] = labels[rows[i]];
  return AucScore(scores, subset_labels);
}

double MaskedDnnClassifier::EvaluateF1(const Matrix& features,
                                       const std::vector<float>& labels,
                                       const std::vector<int>& rows,
                                       const FeatureMask& mask) const {
  const std::vector<float> scores = Predict(features, rows, mask);
  std::vector<float> subset_labels(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) subset_labels[i] = labels[rows[i]];
  return F1Score(scores, subset_labels);
}

}  // namespace pafeat
