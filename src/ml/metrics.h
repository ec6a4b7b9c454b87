#ifndef PAFEAT_ML_METRICS_H_
#define PAFEAT_ML_METRICS_H_

#include <vector>

namespace pafeat {

struct ConfusionCounts {
  int true_positive = 0;
  int false_positive = 0;
  int true_negative = 0;
  int false_negative = 0;
};

// Confusion counts at a 0.5 score threshold (labels are 0/1 floats).
ConfusionCounts ComputeConfusion(const std::vector<float>& scores,
                                 const std::vector<float>& labels);

double Precision(const ConfusionCounts& counts);
double Recall(const ConfusionCounts& counts);
double Accuracy(const ConfusionCounts& counts);

// F1 = harmonic mean of precision and recall at threshold 0.5 (the paper's
// primary effectiveness metric). Returns 0 when precision + recall == 0.
double F1Score(const std::vector<float>& scores,
               const std::vector<float>& labels);

// Area under the ROC curve as the Mann-Whitney statistic: the share of
// (positive, negative) pairs the scores order correctly, a tie counting one
// half. Returns 0.5 when one class is absent (no ranking signal). Labels
// above 0.5 are positive.
//
// The count is exact: 2U is summed pair by pair in 64-bit integers
// (kernels::PairwiseTwiceU) and AUC = 0.5 * 2U / (double(P) * N), the same
// double the midrank form (U = positive midrank sum - P(P+1)/2) gives,
// since every term of that form is a multiple of 0.5 far below 2^53. It
// costs O(P * N) compares: about 2 us at 128 rows, but milliseconds at
// 10^4 rows, which only one-off test-split scoring reaches.
double AucScore(const std::vector<float>& scores,
                const std::vector<float>& labels);
// The same AUC over raw arrays of n scores and labels, with `scratch` (n
// floats) for the per-class score split: the allocation-free form the
// reward's miss path calls with InferenceArena scratch.
double AucScore(int n, const float* scores, const float* labels,
                float* scratch);

}  // namespace pafeat

#endif  // PAFEAT_ML_METRICS_H_
