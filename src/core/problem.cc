#include "core/problem.h"

#include <algorithm>

#include "common/logging.h"
#include "data/stats.h"

namespace pafeat {

FsProblem::FsProblem(Table table, const FsProblemConfig& config, uint64_t seed)
    : labels_(table.labels()),
      label_names_(table.label_names()),
      config_(config),
      rng_(seed) {
  PF_CHECK_GE(table.num_rows(), kMinProblemRows);
  PF_CHECK_GT(table.num_features(), 0);
  PF_CHECK_GT(table.num_labels(), 0);
  split_ = MakeSplit(table.num_rows(), config.train_fraction, &rng_);
  standardizer_.Fit(table.features(), split_.train_rows);
  std_features_ = standardizer_.Transform(std::move(table).TakeFeatures());
  train_moments_ = ComputeColumnMoments(std_features_, split_.train_rows);

  // Carve the reward-evaluation rows out of the training split so the reward
  // classifier is scored on data it did not fit.
  std::vector<int> shuffled = split_.train_rows;
  rng_.Shuffle(&shuffled);
  int eval_count = std::min<int>(config.reward_eval_rows,
                                 static_cast<int>(shuffled.size()) / 4);
  eval_count = std::max(eval_count, 1);
  reward_rows_.assign(shuffled.begin(), shuffled.begin() + eval_count);
  classifier_rows_.assign(shuffled.begin() + eval_count, shuffled.end());
  if (config.classifier_train_rows_cap > 0 &&
      static_cast<int>(classifier_rows_.size()) >
          config.classifier_train_rows_cap) {
    classifier_rows_.resize(config.classifier_train_rows_cap);
  }
  PF_CHECK(!classifier_rows_.empty());
  reward_block_ = std_features_.SelectRows(reward_rows_);
}

std::vector<float> FsProblem::LabelColumn(int label_index) const {
  PF_CHECK_GE(label_index, 0);
  PF_CHECK_LT(label_index, num_tasks());
  std::vector<float> column(labels_.rows());
  for (int r = 0; r < labels_.rows(); ++r) {
    column[r] = labels_.At(r, label_index);
  }
  return column;
}

bool FsProblem::TaskBuilt(int label_index) const {
  return tasks_.find(label_index) != tasks_.end();
}

const TaskContext& FsProblem::Task(int label_index) {
  PF_CHECK_GE(label_index, 0);
  PF_CHECK_LT(label_index, num_tasks());
  auto it = tasks_.find(label_index);
  if (it != tasks_.end()) return it->second;

  TaskContext context;
  context.label_index = label_index;
  context.name = label_names_[label_index];
  context.representation = ComputeTaskRepresentation(label_index);

  const std::vector<float> labels = LabelColumn(label_index);
  Rng task_rng = rng_.Fork(static_cast<uint64_t>(label_index) + 17);
  context.classifier = std::make_unique<MaskedDnnClassifier>(config_.classifier);
  context.classifier->Fit(std_features_, labels, classifier_rows_, &task_rng);
  std::vector<float> eval_labels(reward_rows_.size());
  for (std::size_t i = 0; i < reward_rows_.size(); ++i) {
    eval_labels[i] = labels[reward_rows_[i]];
  }
  context.evaluator = std::make_unique<SubsetEvaluator>(
      &reward_block_, std::move(eval_labels), context.classifier.get(),
      config_.reward_cache_budget_bytes);
  context.full_feature_reward = context.evaluator->FullFeatureReward();

  auto [inserted, ok] = tasks_.emplace(label_index, std::move(context));
  PF_CHECK(ok);
  return inserted->second;
}

std::vector<float> FsProblem::ComputeTaskRepresentation(
    int label_index) const {
  const std::vector<float> labels = LabelColumn(label_index);
  return TaskRepresentation(std_features_, train_moments_, labels,
                            split_.train_rows);
}

}  // namespace pafeat
