#include "core/experiment.h"

#include "common/logging.h"
#include "ml/linear_svm.h"
#include "ml/metrics.h"

namespace pafeat {

DownstreamScore EvaluateSubsetDownstream(FsProblem* problem, int label_index,
                                         const FeatureMask& mask,
                                         uint64_t seed) {
  PF_CHECK(problem != nullptr);
  PF_CHECK_EQ(static_cast<int>(mask.size()), problem->num_features());
  Rng rng(seed);
  const std::vector<float> labels = problem->LabelColumn(label_index);

  LinearSvm svm;
  svm.Fit(problem->std_features(), labels, problem->train_rows(), mask, &rng);

  const std::vector<int>& test_rows = problem->test_rows();
  const std::vector<float> scores =
      svm.PredictScores(problem->std_features(), test_rows);
  std::vector<float> test_labels(test_rows.size());
  for (size_t i = 0; i < test_rows.size(); ++i) {
    test_labels[i] = labels[test_rows[i]];
  }

  DownstreamScore score;
  score.f1 = F1Score(scores, test_labels);
  score.auc = AucScore(scores, test_labels);
  return score;
}

MethodEvaluation EvaluateMethod(FsProblem* problem,
                                const std::vector<int>& seen,
                                const std::vector<int>& unseen,
                                double max_feature_ratio,
                                FeatureSelector* selector, uint64_t seed) {
  PF_CHECK(selector != nullptr);
  PF_CHECK(!unseen.empty());

  MethodEvaluation evaluation;
  evaluation.method = selector->name();
  evaluation.mean_iteration_seconds =
      selector->Prepare(problem, seen, max_feature_ratio);

  for (size_t i = 0; i < unseen.size(); ++i) {
    double exec_seconds = 0.0;
    FeatureMask mask =
        selector->SelectForUnseen(problem, unseen[i], &exec_seconds);
    const DownstreamScore score = EvaluateSubsetDownstream(
        problem, unseen[i], mask, seed + 7919 * (i + 1));
    evaluation.avg_f1 += score.f1;
    evaluation.avg_auc += score.auc;
    evaluation.avg_execution_seconds += exec_seconds;
    evaluation.masks.push_back(std::move(mask));
  }
  const double inv = 1.0 / unseen.size();
  evaluation.avg_f1 *= inv;
  evaluation.avg_auc *= inv;
  evaluation.avg_execution_seconds *= inv;
  return evaluation;
}

}  // namespace pafeat
