#ifndef PAFEAT_DATA_STATS_H_
#define PAFEAT_DATA_STATS_H_

#include <vector>

#include "tensor/matrix.h"

namespace pafeat {

// Pearson correlation coefficient between two equal-length vectors.
// Returns 0 when either vector is constant.
double PearsonCorrelation(const std::vector<float>& a,
                          const std::vector<float>& b);

// The task-independent half of PearsonCorrelation for every feature column
// over `rows`: the column's mean and its centered sum of squares, each summed
// in double in row-list order exactly as PearsonCorrelation sums them.
struct ColumnMoments {
  std::vector<double> means;
  std::vector<double> centered_sum_squares;
};

ColumnMoments ComputeColumnMoments(const Matrix& features,
                                   const std::vector<int>& rows);

// The paper's task representation (§III-B): per feature, the absolute value
// of the Pearson correlation between the feature column (over `rows`) and the
// task's label vector. Length = number of features.
//
// `moments` must be ComputeColumnMoments(features, rows). The label's moments
// are computed once, then one row-major pass over `rows` accumulates every
// column's cross sum in double. Each column sees the same operations in the
// same order as PearsonCorrelation(column, labels over rows), so every output
// equals static_cast<float>(std::abs(PearsonCorrelation(...))) bit for bit.
std::vector<float> TaskRepresentation(const Matrix& features,
                                      const ColumnMoments& moments,
                                      const std::vector<float>& labels,
                                      const std::vector<int>& rows);

// Computes the column moments and runs the same pass; for one-off callers.
std::vector<float> TaskRepresentation(const Matrix& features,
                                      const std::vector<float>& labels,
                                      const std::vector<int>& rows);

// Histogram-based mutual information (in nats) between a continuous feature
// and a binary label, estimated with `bins` equal-width bins over `rows`.
// Used by K-Best, GRRO-LS and Ant-TD.
double MutualInformationWithLabel(const Matrix& features, int feature,
                                  const std::vector<float>& labels,
                                  const std::vector<int>& rows, int bins = 10);

// Histogram-based mutual information between two continuous features
// (bins x bins joint histogram). Used by the redundancy terms.
double MutualInformationBetweenFeatures(const Matrix& features, int feature_a,
                                        int feature_b,
                                        const std::vector<int>& rows,
                                        int bins = 10);

// Pre-binned view of every feature over a fixed row set, amortizing the
// equal-width binning across the O(m * |S|) pairwise MI queries issued by
// the redundancy-aware baselines (GRRO-LS, Ant-TD).
class BinnedFeatures {
 public:
  BinnedFeatures(const Matrix& features, const std::vector<int>& rows,
                 int bins);

  // MI between two features, from the cached bin ids.
  double MutualInformation(int feature_a, int feature_b) const;

  int num_features() const { return static_cast<int>(ids_.size()); }
  int num_rows() const { return num_rows_; }

 private:
  int bins_;
  int num_rows_;
  std::vector<std::vector<int>> ids_;  // [feature][row]
};

}  // namespace pafeat

#endif  // PAFEAT_DATA_STATS_H_
