#include "ml/subset_evaluator.h"

#include "common/logging.h"

namespace pafeat {

SubsetEvaluator::SubsetEvaluator(const Matrix* eval_block,
                                 std::vector<float> eval_labels,
                                 const MaskedDnnClassifier* classifier,
                                 long long cache_budget_bytes)
    : eval_block_(eval_block),
      eval_labels_(std::move(eval_labels)),
      classifier_(classifier),
      cache_(ResolveCacheBudgetBytes(cache_budget_bytes),
             (eval_block->cols() + 63) / 64) {
  PF_CHECK(classifier_ != nullptr);
  PF_CHECK(classifier_->fitted());
  PF_CHECK_GT(eval_block_->rows(), 0);
  PF_CHECK_EQ(static_cast<int>(eval_labels_.size()), eval_block_->rows());
}

void SubsetEvaluator::StartRecord(const FeatureMask& mask, int max_cols,
                                  SubsetRecord* record) const {
  PF_CHECK_EQ(static_cast<int>(mask.size()), eval_block_->cols());
  record->Restart(mask, classifier_->record_sum_size(eval_block_->rows()),
                  max_cols);
}

double SubsetEvaluator::EvaluateUncached(const FeatureMask& mask) const {
  SubsetRecord record;
  StartRecord(mask, 0, &record);
  return classifier_->EvaluateAucCarried(*eval_block_, eval_labels_, &record);
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
  PF_CHECK_EQ(static_cast<int>(mask.size()), eval_block_->cols());
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
      classifier_->EvaluateAucCarried(*eval_block_, eval_labels_, record);
  cache_.Publish(record->key, reward);
  return reward;
}

double SubsetEvaluator::FullFeatureReward() const {
  return Reward(FeatureMask(eval_block_->cols(), 1));
}

}  // namespace pafeat
