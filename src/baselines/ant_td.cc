#include "baselines/ant_td.h"

#include <algorithm>
#include <cmath>

#include "baselines/kbest.h"
#include "common/logging.h"
#include "common/timer.h"
#include "data/stats.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"

namespace pafeat {

double AntTdSelector::Prepare(FsProblem* problem, const std::vector<int>& seen,
                              double max_feature_ratio) {
  (void)problem;
  seen_ = seen;
  max_feature_ratio_ = max_feature_ratio;
  return 0.0;
}

FeatureMask AntTdSelector::SelectForUnseen(FsProblem* problem,
                                           int unseen_label_index,
                                           double* execution_seconds) {
  WallTimer timer;
  const int m = problem->num_features();
  const int target = TargetSubsetSize(m, max_feature_ratio_);
  const Matrix& features = problem->std_features();
  Rng rng(config_.seed + 53 * unseen_label_index);

  // Heuristic eta: summed MI relevance across seen labels + the new task.
  std::vector<int> label_indices = seen_;
  label_indices.push_back(unseen_label_index);
  std::vector<double> heuristic(m, 1e-6);
  for (int label_index : label_indices) {
    const std::vector<float> labels =
        problem->LabelColumn(label_index);
    for (int f = 0; f < m; ++f) {
      heuristic[f] += MutualInformationWithLabel(
          features, f, labels, problem->train_rows(), config_.mi_bins);
    }
  }

  // Quality model rows: train/validation carve-out of the training split.
  std::vector<int> rows = problem->train_rows();
  if (static_cast<int>(rows.size()) > config_.quality_row_cap) {
    rows.resize(config_.quality_row_cap);
  }
  const size_t fit_count = rows.size() * 2 / 3;
  const std::vector<int> fit_rows(rows.begin(), rows.begin() + fit_count);
  const std::vector<int> val_rows(rows.begin() + fit_count, rows.end());
  const std::vector<float> unseen_labels =
      problem->LabelColumn(unseen_label_index);
  std::vector<float> val_labels(val_rows.size());
  for (size_t i = 0; i < val_rows.size(); ++i) {
    val_labels[i] = unseen_labels[val_rows[i]];
  }

  auto subset_quality = [&](const std::vector<int>& subset) {
    // SelectCols keeps row indexing, so the original row ids still apply.
    const Matrix projected = features.SelectCols(subset);
    LogisticRegressionConfig lr_config;
    lr_config.epochs = 10;
    LogisticRegression model(lr_config);
    model.Fit(projected, unseen_labels, fit_rows, &rng);
    const std::vector<float> scores = model.PredictProba(projected, val_rows);
    return AucScore(scores, val_labels);
  };

  std::vector<double> pheromone(m, 1.0);
  std::vector<int> best_subset;
  double best_quality = -1.0;

  for (int generation = 0; generation < config_.generations; ++generation) {
    for (int ant = 0; ant < config_.num_ants; ++ant) {
      // Construct a subset of `target` features by roulette sampling with
      // probability proportional to tau^alpha * eta^beta.
      std::vector<double> weights(m);
      for (int f = 0; f < m; ++f) {
        weights[f] = std::pow(pheromone[f], config_.pheromone_weight) *
                     std::pow(heuristic[f], config_.heuristic_weight);
      }
      std::vector<int> subset;
      subset.reserve(target);
      for (int step = 0; step < target; ++step) {
        const int pick = rng.SampleDiscrete(weights);
        subset.push_back(pick);
        weights[pick] = 0.0;
      }
      std::sort(subset.begin(), subset.end());

      const double quality = subset_quality(subset);
      if (quality > best_quality) {
        best_quality = quality;
        best_subset = subset;
      }
      // TD update: pheromone of visited features moves toward the observed
      // quality signal (the "temporal difference" of Ant-TD).
      for (int f : subset) {
        pheromone[f] += config_.td_learning_rate * (quality - pheromone[f]);
      }
    }
    // Evaporation.
    for (double& tau : pheromone) {
      tau = std::max(1e-3, (1.0 - config_.evaporation) * tau);
    }
  }

  PF_CHECK(!best_subset.empty());
  if (execution_seconds != nullptr) *execution_seconds = timer.ElapsedSeconds();
  return IndicesToMask(best_subset, m);
}

}  // namespace pafeat
