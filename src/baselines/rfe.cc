#include "baselines/rfe.h"

#include <algorithm>
#include <cmath>

#include "baselines/kbest.h"
#include "common/logging.h"
#include "common/timer.h"

namespace pafeat {

double RfeSelector::Prepare(FsProblem* problem, const std::vector<int>& seen,
                            double max_feature_ratio) {
  (void)problem;
  (void)seen;
  max_feature_ratio_ = max_feature_ratio;
  return 0.0;  // wrapper method: everything happens at query time
}

FeatureMask RfeSelector::SelectForUnseen(FsProblem* problem,
                                         int unseen_label_index,
                                         double* execution_seconds) {
  WallTimer timer;
  const int m = problem->num_features();
  const int target = TargetSubsetSize(m, max_feature_ratio_);
  const std::vector<float> labels =
      problem->LabelColumn(unseen_label_index);
  Rng rng(0x8fe1u + unseen_label_index);

  std::vector<int> surviving(m);
  for (int f = 0; f < m; ++f) surviving[f] = f;

  while (static_cast<int>(surviving.size()) > target) {
    // Fit on the surviving columns only.
    const Matrix projected =
        problem->std_features().SelectCols(surviving);
    LogisticRegression model(model_config_);
    model.Fit(projected, labels, problem->train_rows(), &rng);

    // Drop the drop_fraction of surviving features with the smallest
    // absolute weight (at least one, never past the target).
    const int surviving_count = static_cast<int>(surviving.size());
    int drop = std::max(
        1, static_cast<int>(std::lround(drop_fraction_ * surviving_count)));
    drop = std::min(drop, surviving_count - target);

    std::vector<int> order(surviving_count);
    for (int i = 0; i < surviving_count; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return std::abs(model.weights()[a]) < std::abs(model.weights()[b]);
    });
    std::vector<bool> dropped(surviving_count, false);
    for (int i = 0; i < drop; ++i) dropped[order[i]] = true;

    std::vector<int> next;
    next.reserve(surviving_count - drop);
    for (int i = 0; i < surviving_count; ++i) {
      if (!dropped[i]) next.push_back(surviving[i]);
    }
    surviving = std::move(next);
  }

  if (execution_seconds != nullptr) *execution_seconds = timer.ElapsedSeconds();
  return IndicesToMask(surviving, m);
}

}  // namespace pafeat
