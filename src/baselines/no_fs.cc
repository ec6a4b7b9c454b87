#include "baselines/no_fs.h"

#include "common/logging.h"
#include "ml/metrics.h"

namespace pafeat {

DownstreamScore EvaluateDnnAllFeatures(FsProblem* problem, int label_index,
                                       const MaskedDnnConfig& config,
                                       uint64_t seed) {
  PF_CHECK(problem != nullptr);
  Rng rng(seed);
  const std::vector<float> labels = problem->LabelColumn(label_index);

  MaskedDnnConfig dnn_config = config;
  dnn_config.min_keep = 1.0;  // no mask dropout: a plain all-features DNN
  MaskedDnnClassifier classifier(dnn_config);
  classifier.Fit(problem->std_features(), labels, problem->train_rows(), &rng);

  const std::vector<int>& test_rows = problem->test_rows();
  const FeatureMask all(problem->num_features(), 1);
  DownstreamScore score;
  score.auc = classifier.EvaluateAuc(problem->std_features(), labels,
                                     test_rows, all);
  score.f1 =
      classifier.EvaluateF1(problem->std_features(), labels, test_rows, all);
  return score;
}

DownstreamScore AverageDnnAllFeatures(FsProblem* problem,
                                      const std::vector<int>& labels,
                                      const MaskedDnnConfig& config,
                                      uint64_t seed) {
  PF_CHECK(!labels.empty());
  DownstreamScore total;
  for (size_t i = 0; i < labels.size(); ++i) {
    const DownstreamScore score =
        EvaluateDnnAllFeatures(problem, labels[i], config, seed + 31 * i);
    total.f1 += score.f1;
    total.auc += score.auc;
  }
  total.f1 /= labels.size();
  total.auc /= labels.size();
  return total;
}

}  // namespace pafeat
