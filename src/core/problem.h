#ifndef PAFEAT_CORE_PROBLEM_H_
#define PAFEAT_CORE_PROBLEM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/split.h"
#include "data/table.h"
#include "memory/budget.h"
#include "ml/masked_dnn.h"
#include "ml/subset_evaluator.h"

namespace pafeat {

// Everything PA-FEAT needs about one task: its labels, its representation
// (the |Pearson| vector that marks the task inside the shared state space),
// the pretrained mask-aware reward classifier, the memoizing subset
// evaluator, and the all-features baseline performance P_all (Eqn 6a).
struct TaskContext {
  int label_index = 0;
  std::string name;
  std::vector<float> labels;
  std::vector<float> representation;
  std::unique_ptr<MaskedDnnClassifier> classifier;
  std::unique_ptr<SubsetEvaluator> evaluator;
  double full_feature_reward = 0.0;
};

struct FsProblemConfig {
  // The paper's 70/30 split (§IV-A4).
  double train_fraction = 0.7;
  MaskedDnnConfig classifier;
  // Rows (from the training split) reserved for reward evaluation; capped
  // for speed, disjoint from the classifier's fitting rows.
  int reward_eval_rows = 256;
  // Cap on classifier fitting rows (0 = no cap).
  int classifier_train_rows_cap = 2000;
  // Byte budget for each task's subset-reward cache; resolves through
  // ResolveCacheBudgetBytes (> 0 bytes, 0 explicit unlimited, < 0 the
  // PAFEAT_CACHE_BUDGET chain). example_pafeat_tool surfaces this as
  // --max_cache_mb.
  long long reward_cache_budget_bytes = kMemoryBudgetDefault;
};

// Fewest table rows an FsProblem accepts (a constructor precondition): the
// train/test split and the reward-evaluation carve-out need this many.
inline constexpr int kMinProblemRows = 4;

// A fast-feature-selection problem instance: one structured-data table with
// a shared feature space, a train/test split, standardized features, and
// lazily-built per-task contexts.
//
// The test split is used exclusively by the downstream evaluation
// (experiment.h); training, task representations and rewards only ever see
// training rows.
class FsProblem {
 public:
  FsProblem(Table table, const FsProblemConfig& config, uint64_t seed);

  FsProblem(const FsProblem&) = delete;
  FsProblem& operator=(const FsProblem&) = delete;

  int num_features() const { return table_.num_features(); }
  int num_tasks() const { return table_.num_labels(); }
  const Table& table() const { return table_; }
  // Standardized feature matrix (all rows; fit on training rows only).
  const Matrix& std_features() const { return std_features_; }
  const std::vector<int>& train_rows() const { return split_.train_rows; }
  const std::vector<int>& test_rows() const { return split_.test_rows; }
  const FsProblemConfig& config() const { return config_; }

  // The context for a task, building (and caching) it on first use. Building
  // trains the task's reward classifier — this is the offline pretraining
  // step of §IV-A4, not part of the timed execution path.
  const TaskContext& Task(int label_index);
  bool TaskBuilt(int label_index) const;

  // Recomputes the task representation from scratch over the training rows
  // (the timed part of unseen-task execution; §IV-B2 compares its O(n m)
  // cost against K-Best's mutual information ranking).
  std::vector<float> ComputeTaskRepresentation(int label_index) const;

 private:
  Table table_;
  FsProblemConfig config_;
  // Root stream for splits/subsampling; serial-only (see rng-escape in
  // pafeat-analyze).
  Rng rng_;  // analyze: root-rng
  TrainTestSplit split_;
  Standardizer standardizer_;
  Matrix std_features_;
  std::vector<int> classifier_rows_;
  std::vector<int> reward_rows_;
  std::map<int, TaskContext> tasks_;
};

}  // namespace pafeat

#endif  // PAFEAT_CORE_PROBLEM_H_
