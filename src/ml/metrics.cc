#include "ml/metrics.h"

#include "common/logging.h"
#include "tensor/kernels.h"

namespace pafeat {

ConfusionCounts ComputeConfusion(const std::vector<float>& scores,
                                 const std::vector<float>& labels) {
  PF_CHECK_EQ(scores.size(), labels.size());
  ConfusionCounts counts;
  for (size_t i = 0; i < scores.size(); ++i) {
    const bool predicted = scores[i] > 0.5f;
    const bool actual = labels[i] > 0.5f;
    if (predicted && actual) ++counts.true_positive;
    if (predicted && !actual) ++counts.false_positive;
    if (!predicted && actual) ++counts.false_negative;
    if (!predicted && !actual) ++counts.true_negative;
  }
  return counts;
}

double Precision(const ConfusionCounts& c) {
  const int denom = c.true_positive + c.false_positive;
  return denom == 0 ? 0.0 : static_cast<double>(c.true_positive) / denom;
}

double Recall(const ConfusionCounts& c) {
  const int denom = c.true_positive + c.false_negative;
  return denom == 0 ? 0.0 : static_cast<double>(c.true_positive) / denom;
}

double Accuracy(const ConfusionCounts& c) {
  const int total = c.true_positive + c.false_positive + c.true_negative +
                    c.false_negative;
  return total == 0
             ? 0.0
             : static_cast<double>(c.true_positive + c.true_negative) / total;
}

double F1Score(const std::vector<float>& scores,
               const std::vector<float>& labels) {
  const ConfusionCounts counts = ComputeConfusion(scores, labels);
  const double p = Precision(counts);
  const double r = Recall(counts);
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double AucScore(const std::vector<float>& scores,
                const std::vector<float>& labels) {
  PF_CHECK_EQ(scores.size(), labels.size());
  std::vector<float> scratch(scores.size());
  return AucScore(static_cast<int>(scores.size()), scores.data(),
                  labels.data(), scratch.data());
}

double AucScore(int n, const float* scores, const float* labels,
                float* scratch) {
  PF_CHECK_GE(n, 0);
  PF_CHECK_LT(n, 1 << 30);  // PairwiseTwiceU's per-positive int count
  // Positives fill the scratch from the front, negatives from the back; the
  // count does not depend on either set's order.
  int positives = 0;
  int negatives = 0;
  for (int i = 0; i < n; ++i) {
    if (labels[i] > 0.5f) {
      scratch[positives++] = scores[i];
    } else {
      scratch[n - 1 - negatives++] = scores[i];
    }
  }
  if (positives == 0 || negatives == 0) return 0.5;
  const long long twice_u = kernels::PairwiseTwiceU(
      positives, scratch, negatives, scratch + positives);
  return 0.5 * static_cast<double>(twice_u) /
         (static_cast<double>(positives) * negatives);
}

}  // namespace pafeat
