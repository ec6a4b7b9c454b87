#include "ml/masked_dnn.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "ml/metrics.h"
#include "nn/optimizer.h"

namespace pafeat {

void SubsetRecord::Restart(const FeatureMask& mask, std::size_t sum_size,
                           int max_cols) {
  const int m = static_cast<int>(mask.size());
  key.assign((mask.size() + 63) / 64, 0);
  cols.clear();
  cols.reserve(static_cast<std::size_t>(std::max(max_cols, 0)));
  for (int c = 0; c < m; ++c) {
    if (!mask[c]) continue;
    key[c >> 6] |= std::uint64_t{1} << (c & 63);
    cols.push_back(c);
  }
  sum.assign(sum_size, 0.0f);
  folded = 0;
}

void SubsetRecord::Select(int column) {
  std::uint64_t& word = key[column >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (column & 63);
  if (word & bit) return;
  word |= bit;
  if (cols.empty() || column > cols.back()) {
    cols.push_back(column);
    return;
  }
  const auto at = std::lower_bound(cols.begin(), cols.end(), column);
  if (at - cols.begin() < folded) {
    std::fill(sum.begin(), sum.end(), 0.0f);
    folded = 0;
  }
  cols.insert(at, column);
}

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
    const Matrix& block, const FeatureMask& mask) const {
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
  SubsetRecord record;
  record.Restart(mask.empty() ? FeatureMask(m, 1) : mask,
                 record_sum_size(rows), 0);
  InferenceArena* arena = InferenceArena::ThreadLocal();
  ArenaScope scope(arena);
  float* probs = arena->Alloc(static_cast<std::size_t>(rows));
  FoldAndFinish(block, &record, arena, probs);
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

std::size_t MaskedDnnClassifier::record_sum_size(int rows) const {
  PF_CHECK(net_ != nullptr);
  return static_cast<std::size_t>(rows) * net_->layer_output_dim(0);
}

void MaskedDnnClassifier::FoldAndFinish(const Matrix& block,
                                        SubsetRecord* record,
                                        InferenceArena* arena,
                                        float* probs) const {
  const int rows = block.rows();
  PF_CHECK_EQ(record->sum.size(), record_sum_size(rows));
  // The sum holds the gather over the first `folded` columns; folding the
  // rest replays the one-pass chain exactly (Mlp::AccumulateGathered).
  const int listed = static_cast<int>(record->cols.size());
  net_->AccumulateGathered(rows, block.data(), block.cols(),
                           record->cols.data() + record->folded,
                           listed - record->folded, w0t_,
                           record->sum.data());
  record->folded = listed;
  net_->FinishGathered(rows, record->sum.data(), arena, probs);
}

// analyze: hot-path-root
double MaskedDnnClassifier::EvaluateAucCarried(
    const Matrix& block, const std::vector<float>& block_labels,
    SubsetRecord* record) const {
  const int rows = block.rows();
  PF_CHECK_EQ(static_cast<int>(block_labels.size()), rows);
  InferenceArena* arena = InferenceArena::ThreadLocal();
  ArenaScope scope(arena);
  float* probs = arena->Alloc(static_cast<std::size_t>(rows));
  FoldAndFinish(block, record, arena, probs);
  float* scratch = arena->Alloc(static_cast<std::size_t>(rows));
  return AucScore(rows, probs, block_labels.data(), scratch);
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
