#ifndef PAFEAT_ML_MASKED_DNN_H_
#define PAFEAT_ML_MASKED_DNN_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/feature_mask.h"
#include "nn/mlp.h"
#include "tensor/matrix.h"

namespace pafeat {

struct MaskedDnnConfig {
  std::vector<int> hidden_dims = {64};
  int epochs = 20;
  int batch_size = 64;
  float learning_rate = 1e-3f;
  // During training, each batch sees a random feature mask whose keep
  // probability is drawn from [min_keep, 1]; this teaches the network to
  // classify from arbitrary subsets (paper §IV-A4: "pretrain a classifier
  // using all features ... which uses masked feature vectors").
  double min_keep = 0.3;
};

// One scan's partial first-layer product (DESIGN.md "Inference fast path"):
// `sum` holds an eval block times the first-layer weight over the sorted
// column list `cols`, before the bias (block rows x first-layer width). A
// reward query whose selected columns extend `cols` gathers only the new
// ones; any other query restarts the carry from zero. Either way the result
// is bit-identical to a fresh evaluation. A carry belongs to the one
// classifier and block that fill it; an empty carry is the fresh case.
struct FirstLayerCarry {
  std::vector<int> cols;
  std::vector<float> sum;
};

// The pretrained reward classifier CLS of Eqn 2: one DNN trained once per
// task on all features with feature-mask dropout, then queried with the
// candidate subset's mask at every reward evaluation — avoiding a classifier
// retrain per subset.
//
// Inputs are expected to be standardized, so masking a feature to zero is
// masking it to its mean.
class MaskedDnnClassifier {
 public:
  explicit MaskedDnnClassifier(const MaskedDnnConfig& config = {});

  // Trains on the given rows; resets previous state.
  void Fit(const Matrix& features, const std::vector<float>& labels,
           const std::vector<int>& rows, Rng* rng);

  // P(y=1 | masked x) for each given row. An empty mask means "all features".
  std::vector<float> Predict(const Matrix& features,
                             const std::vector<int>& rows,
                             const FeatureMask& mask) const;

  // Masked-subset inference fast path over a precomputed contiguous row
  // block (every row of `block` is evaluated): the first layer gathers only
  // the mask's selected columns, so the cost scales with |mask| rather than
  // the feature count and no masked copy of the block is ever materialized.
  // With a `carry` whose columns are a prefix of the mask's, only the columns
  // past that prefix are gathered, and the carry moves up to the mask.
  // Bit-identical to PredictBlockReference with or without a carry; forward
  // passes draw scratch from the calling thread's InferenceArena.
  // SubsetEvaluator holds such a block for its eval rows.
  std::vector<float> PredictBlock(const Matrix& block, const FeatureMask& mask,
                                  FirstLayerCarry* carry = nullptr) const;

  // Reference implementation kept for the bitwise-equivalence tests: builds
  // the zero-masked copy (BuildMaskedBatch) and runs it full-width through
  // the same canonical summation order as the fast path.
  std::vector<float> PredictBlockReference(const Matrix& block,
                                           const FeatureMask& mask) const;

  // AUC of PredictBlock against the block's labels — the cache-miss cost of
  // SubsetEvaluator::Reward.
  double EvaluateAucBlock(const Matrix& block,
                          const std::vector<float>& block_labels,
                          const FeatureMask& mask,
                          FirstLayerCarry* carry = nullptr) const;

  // AUC of the masked prediction over the given rows — the paper's P(.) in
  // the reward function.
  double EvaluateAuc(const Matrix& features, const std::vector<float>& labels,
                     const std::vector<int>& rows,
                     const FeatureMask& mask) const;

  // F1 of the masked prediction (used by the distance-ratio diagnostics).
  double EvaluateF1(const Matrix& features, const std::vector<float>& labels,
                    const std::vector<int>& rows,
                    const FeatureMask& mask) const;

  bool fitted() const { return net_ != nullptr; }

 private:
  Matrix BuildMaskedBatch(const Matrix& features, const std::vector<int>& rows,
                          const FeatureMask& mask) const;

  MaskedDnnConfig config_;
  std::unique_ptr<Mlp> net_;
  // Inference operands prepared once per Fit: the transposed first-layer
  // weight (feature-indexed rows, what the gather kernel walks) and the
  // identity column list used when a mask selects everything.
  Matrix w0t_;
  std::vector<int> all_cols_;
};

}  // namespace pafeat

#endif  // PAFEAT_ML_MASKED_DNN_H_
