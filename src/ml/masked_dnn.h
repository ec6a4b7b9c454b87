#ifndef PAFEAT_ML_MASKED_DNN_H_
#define PAFEAT_ML_MASKED_DNN_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/feature_mask.h"
#include "nn/mlp.h"
#include "nn/workspace.h"
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

// A scan's subset record (DESIGN.md "First-layer carry along a scan"): the
// subset as the reward cache's key and as its ascending column list, and
// the partial first-layer product of an eval block over the list's first
// `folded` columns (`sum`: block rows x first-layer width, before the
// bias). A select updates the subset in O(1); a reward miss folds only the
// columns past `folded` into the sum (MaskedDnnClassifier::
// EvaluateAucCarried). Folding a list in pieces leaves the bits of folding
// it at once, so every reward is bit-identical to a fresh evaluation. A
// record belongs to the one classifier and block that size its sum.
struct SubsetRecord {
  std::vector<float> sum;
  PackedMask key;
  std::vector<int> cols;
  int folded = 0;

  // Restarts the record at `mask`, O(m): the key and the column list from
  // the mask, `sum_size` zeroed floats, nothing folded. The list gets room
  // for `max_cols` columns, so that many selects never allocate.
  void Restart(const FeatureMask& mask, std::size_t sum_size, int max_cols);

  // Adds `column` (0 <= column < the restarted mask's size) to the subset.
  // Along a left-to-right scan it lies above every listed column: one key
  // bit and one append, O(1). A column already in the subset changes
  // nothing. A start mask with bits past its scan position can put a column
  // below the last listed one: it goes in at its place, and the sum
  // restarts if that place is inside the folded prefix.
  void Select(int column);
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
  // Runs a fresh SubsetRecord through the fold and finish of
  // EvaluateAucCarried. Bit-identical to PredictBlockReference; forward
  // passes draw scratch from the calling thread's InferenceArena.
  std::vector<float> PredictBlock(const Matrix& block,
                                  const FeatureMask& mask) const;

  // Reference implementation kept for the bitwise-equivalence tests: builds
  // the zero-masked copy (BuildMaskedBatch) and runs it full-width through
  // the same canonical summation order as the fast path.
  std::vector<float> PredictBlockReference(const Matrix& block,
                                           const FeatureMask& mask) const;

  // The reward's one miss path (SubsetEvaluator): folds the record's
  // unfolded columns into its sum, finishes the forward pass from the sum
  // and returns the AUC of the scores against the block's labels. `record`
  // must be sized for this classifier and `block` (record_sum_size). A
  // warm call draws all its scratch from the calling thread's
  // InferenceArena and does not touch the heap.
  double EvaluateAucCarried(const Matrix& block,
                            const std::vector<float>& block_labels,
                            SubsetRecord* record) const;

  // Floats in a record's sum for a block of `rows` rows.
  std::size_t record_sum_size(int rows) const;

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
  // The fold and finish shared by PredictBlock and EvaluateAucCarried:
  // writes block.rows() probabilities to `probs`.
  void FoldAndFinish(const Matrix& block, SubsetRecord* record,
                     InferenceArena* arena, float* probs) const;

  MaskedDnnConfig config_;
  std::unique_ptr<Mlp> net_;
  // The transposed first-layer weight (feature-indexed rows, what the gather
  // kernel walks), prepared once per Fit.
  Matrix w0t_;
};

}  // namespace pafeat

#endif  // PAFEAT_ML_MASKED_DNN_H_
