#include "baselines/grro_ls.h"

#include <algorithm>

#include "baselines/kbest.h"
#include "common/logging.h"
#include "common/timer.h"
#include "data/stats.h"

namespace pafeat {

double GrroLsSelector::Prepare(FsProblem* problem,
                               const std::vector<int>& seen,
                               double max_feature_ratio) {
  (void)problem;
  seen_ = seen;
  max_feature_ratio_ = max_feature_ratio;
  return 0.0;  // multi-label methods cannot prepare before the task arrives
}

FeatureMask GrroLsSelector::SelectForUnseen(FsProblem* problem,
                                            int unseen_label_index,
                                            double* execution_seconds) {
  WallTimer timer;
  const int m = problem->num_features();
  const int target = TargetSubsetSize(m, max_feature_ratio_);
  const Matrix& features = problem->std_features();
  const std::vector<int>& rows = problem->train_rows();

  // Global relevance: MI against every label (seen + the arriving task).
  std::vector<int> label_indices = seen_;
  label_indices.push_back(unseen_label_index);
  std::vector<double> relevance(m, 0.0);
  for (int label_index : label_indices) {
    const std::vector<float> labels =
        problem->LabelColumn(label_index);
    for (int f = 0; f < m; ++f) {
      relevance[f] +=
          MutualInformationWithLabel(features, f, labels, rows, config_.mi_bins);
    }
  }

  // Row subsample + pre-binning for the O(m * |S|) pairwise redundancy
  // estimates.
  std::vector<int> redundancy_rows = rows;
  if (static_cast<int>(redundancy_rows.size()) > config_.redundancy_row_cap) {
    redundancy_rows.resize(config_.redundancy_row_cap);
  }
  const BinnedFeatures binned(features, redundancy_rows, config_.mi_bins);

  std::vector<uint8_t> selected(m, 0);
  std::vector<double> redundancy_sum(m, 0.0);
  std::vector<int> chosen;
  chosen.reserve(target);
  for (int step = 0; step < target; ++step) {
    int best = -1;
    double best_score = 0.0;
    for (int f = 0; f < m; ++f) {
      if (selected[f]) continue;
      const double redundancy =
          chosen.empty() ? 0.0 : redundancy_sum[f] / chosen.size();
      const double score =
          relevance[f] - config_.redundancy_weight * redundancy;
      if (best < 0 || score > best_score) {
        best = f;
        best_score = score;
      }
    }
    PF_CHECK_GE(best, 0);
    selected[best] = 1;
    chosen.push_back(best);
    // Update every candidate's redundancy against the newly chosen feature.
    for (int f = 0; f < m; ++f) {
      if (selected[f]) continue;
      redundancy_sum[f] += binned.MutualInformation(f, best);
    }
  }

  if (execution_seconds != nullptr) *execution_seconds = timer.ElapsedSeconds();
  return IndicesToMask(chosen, m);
}

}  // namespace pafeat
