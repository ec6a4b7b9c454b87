#include "baselines/kbest.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/timer.h"
#include "data/stats.h"

namespace pafeat {

int TargetSubsetSize(int num_features, double max_feature_ratio) {
  PF_CHECK_GT(max_feature_ratio, 0.0);
  return std::max(
      1, static_cast<int>(std::floor(max_feature_ratio * num_features)));
}

double KBestSelector::Prepare(FsProblem* problem, const std::vector<int>& seen,
                              double max_feature_ratio) {
  (void)problem;
  (void)seen;
  max_feature_ratio_ = max_feature_ratio;
  return 0.0;  // no training phase
}

FeatureMask KBestSelector::SelectForUnseen(FsProblem* problem,
                                           int unseen_label_index,
                                           double* execution_seconds) {
  WallTimer timer;
  const int m = problem->num_features();
  const std::vector<float> labels =
      problem->LabelColumn(unseen_label_index);
  const std::vector<int>& rows = problem->train_rows();

  std::vector<double> scores(m);
  for (int f = 0; f < m; ++f) {
    scores[f] = MutualInformationWithLabel(problem->std_features(), f, labels,
                                           rows, mi_bins_);
  }

  const int k = TargetSubsetSize(m, max_feature_ratio_);
  std::vector<int> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](int a, int b) { return scores[a] > scores[b]; });
  order.resize(k);

  if (execution_seconds != nullptr) *execution_seconds = timer.ElapsedSeconds();
  return IndicesToMask(order, m);
}

}  // namespace pafeat
