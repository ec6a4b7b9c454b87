#include "ml/subset_evaluator.h"

#include "common/logging.h"

namespace pafeat {

SubsetEvaluator::SubsetEvaluator(const Matrix* features,
                                 std::vector<float> labels,
                                 std::vector<int> eval_rows,
                                 const MaskedDnnClassifier* classifier,
                                 long long cache_budget_bytes)
    : features_(features),
      labels_(std::move(labels)),
      eval_rows_(std::move(eval_rows)),
      classifier_(classifier),
      cache_(ResolveCacheBudgetBytes(cache_budget_bytes)) {
  PF_CHECK(features_ != nullptr);
  PF_CHECK(classifier_ != nullptr);
  PF_CHECK(classifier_->fitted());
  PF_CHECK(!eval_rows_.empty());
  PF_CHECK_EQ(static_cast<int>(labels_.size()), features_->rows());
  eval_block_ = features_->SelectRows(eval_rows_);
  eval_labels_.resize(eval_rows_.size());
  for (size_t i = 0; i < eval_rows_.size(); ++i) {
    eval_labels_[i] = labels_[eval_rows_[i]];
  }
}

void SubsetEvaluator::StartRecord(const FeatureMask& mask, int max_cols,
                                  SubsetRecord* record) const {
  PF_CHECK_EQ(static_cast<int>(mask.size()), features_->cols());
  record->Restart(mask, classifier_->record_sum_size(eval_block_.rows()),
                  max_cols);
}

double SubsetEvaluator::EvaluateUncached(const FeatureMask& mask) const {
  SubsetRecord record;
  StartRecord(mask, 0, &record);
  return classifier_->EvaluateAucCarried(eval_block_, eval_labels_, &record);
}

double SubsetEvaluator::Reward(SubsetRecord* record) const {
  double value = 0.0;
  if (cache_.AcquireOrWait(record->key, &value) ==
      TieredRewardCache::Probe::kHit) {
    return value;
  }
  return ComputeAndPublish(record);
}

double SubsetEvaluator::Reward(const FeatureMask& mask) const {
  PF_CHECK_EQ(static_cast<int>(mask.size()), features_->cols());
  const PackedMask key = PackMask(mask);
  double value = 0.0;
  if (cache_.AcquireOrWait(key, &value) == TieredRewardCache::Probe::kHit) {
    return value;
  }
  SubsetRecord record;
  StartRecord(mask, 0, &record);
  return ComputeAndPublish(&record);
}

double SubsetEvaluator::ComputeAndPublish(SubsetRecord* record) const {
  // This caller claimed the key: compute outside the lock so different
  // subsets evaluate concurrently, then publish (waking any stampede
  // waiters).
  const double reward =
      classifier_->EvaluateAucCarried(eval_block_, eval_labels_, record);
  cache_.Publish(record->key, reward);
  return reward;
}

double SubsetEvaluator::FullFeatureReward() const {
  return Reward(FeatureMask(features_->cols(), 1));
}

}  // namespace pafeat
