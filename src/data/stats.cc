#include "data/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace pafeat {
namespace {

// Maps values over `rows` of one feature column into equal-width bin ids.
std::vector<int> BinFeature(const Matrix& features, int feature,
                            const std::vector<int>& rows, int bins) {
  float lo = features.At(rows[0], feature);
  float hi = lo;
  for (int r : rows) {
    const float v = features.At(r, feature);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::vector<int> ids(rows.size());
  if (hi - lo < 1e-12f) return ids;  // constant column -> single bin
  const float scale = bins / (hi - lo);
  for (size_t i = 0; i < rows.size(); ++i) {
    int id = static_cast<int>((features.At(rows[i], feature) - lo) * scale);
    ids[i] = std::min(id, bins - 1);
  }
  return ids;
}

double EntropyFromCounts(const std::vector<double>& counts, double total) {
  double h = 0.0;
  for (double c : counts) {
    if (c <= 0.0) continue;
    const double p = c / total;
    h -= p * std::log(p);
  }
  return h;
}

}  // namespace

double PearsonCorrelation(const std::vector<float>& a,
                          const std::vector<float>& b) {
  PF_CHECK_EQ(a.size(), b.size());
  PF_CHECK(!a.empty());
  const size_t n = a.size();
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= n;
  mean_b /= n;
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a < 1e-12 || var_b < 1e-12) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

// The column passes run in the dispatched statistics cores
// (tensor/kernels.h): per column, one double accumulator takes the listed
// rows in order with no multiply-add fused, so each column sees
// PearsonCorrelation's operations in its order at every SIMD level.
ColumnMoments ComputeColumnMoments(const Matrix& features,
                                   const std::vector<int>& rows) {
  PF_CHECK(!rows.empty());
  const int m = features.cols();
  const int num_rows = static_cast<int>(rows.size());
  ColumnMoments moments;
  moments.means.assign(m, 0.0);
  moments.centered_sum_squares.assign(m, 0.0);
  kernels::ColumnSums(m, features.data(), m, rows.data(), num_rows,
                      moments.means.data());
  const double n = static_cast<double>(rows.size());
  for (double& mean : moments.means) mean /= n;
  kernels::ColumnCenteredSquares(m, features.data(), m, rows.data(), num_rows,
                                 moments.means.data(),
                                 moments.centered_sum_squares.data());
  return moments;
}

std::vector<float> TaskRepresentation(const Matrix& features,
                                      const ColumnMoments& moments,
                                      const std::vector<float>& labels,
                                      const std::vector<int>& rows) {
  PF_CHECK(!rows.empty());
  const int m = features.cols();
  PF_CHECK_EQ(moments.means.size(), static_cast<size_t>(m));
  PF_CHECK_EQ(moments.centered_sum_squares.size(), static_cast<size_t>(m));
  double label_mean = 0.0;
  for (int r : rows) label_mean += labels[r];
  label_mean /= static_cast<double>(rows.size());
  double label_sum_squares = 0.0;
  for (int r : rows) {
    const double d = labels[r] - label_mean;
    label_sum_squares += d * d;
  }

  std::vector<double> cross(m, 0.0);
  kernels::ColumnCrossSums(m, features.data(), m, rows.data(),
                           static_cast<int>(rows.size()),
                           moments.means.data(), labels.data(), label_mean,
                           cross.data());

  std::vector<float> repr(m);
  for (int c = 0; c < m; ++c) {
    const double var = moments.centered_sum_squares[c];
    const double pearson =
        var < 1e-12 || label_sum_squares < 1e-12
            ? 0.0
            : cross[c] / std::sqrt(var * label_sum_squares);
    repr[c] = static_cast<float>(std::abs(pearson));
  }
  return repr;
}

std::vector<float> TaskRepresentation(const Matrix& features,
                                      const std::vector<float>& labels,
                                      const std::vector<int>& rows) {
  return TaskRepresentation(features, ComputeColumnMoments(features, rows),
                            labels, rows);
}

double MutualInformationWithLabel(const Matrix& features, int feature,
                                  const std::vector<float>& labels,
                                  const std::vector<int>& rows, int bins) {
  PF_CHECK(!rows.empty());
  PF_CHECK_GT(bins, 1);
  const std::vector<int> ids = BinFeature(features, feature, rows, bins);
  std::vector<double> joint(bins * 2, 0.0);
  std::vector<double> feature_marginal(bins, 0.0);
  std::vector<double> label_marginal(2, 0.0);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int y = labels[rows[i]] > 0.5f ? 1 : 0;
    joint[ids[i] * 2 + y] += 1.0;
    feature_marginal[ids[i]] += 1.0;
    label_marginal[y] += 1.0;
  }
  const double total = static_cast<double>(rows.size());
  const double h_joint = EntropyFromCounts(joint, total);
  const double h_feature = EntropyFromCounts(feature_marginal, total);
  const double h_label = EntropyFromCounts(label_marginal, total);
  return std::max(0.0, h_feature + h_label - h_joint);
}

double MutualInformationBetweenFeatures(const Matrix& features, int feature_a,
                                        int feature_b,
                                        const std::vector<int>& rows,
                                        int bins) {
  PF_CHECK(!rows.empty());
  PF_CHECK_GT(bins, 1);
  const std::vector<int> ids_a = BinFeature(features, feature_a, rows, bins);
  const std::vector<int> ids_b = BinFeature(features, feature_b, rows, bins);
  std::vector<double> joint(bins * bins, 0.0);
  std::vector<double> marginal_a(bins, 0.0);
  std::vector<double> marginal_b(bins, 0.0);
  for (size_t i = 0; i < rows.size(); ++i) {
    joint[ids_a[i] * bins + ids_b[i]] += 1.0;
    marginal_a[ids_a[i]] += 1.0;
    marginal_b[ids_b[i]] += 1.0;
  }
  const double total = static_cast<double>(rows.size());
  const double h_joint = EntropyFromCounts(joint, total);
  const double h_a = EntropyFromCounts(marginal_a, total);
  const double h_b = EntropyFromCounts(marginal_b, total);
  return std::max(0.0, h_a + h_b - h_joint);
}

BinnedFeatures::BinnedFeatures(const Matrix& features,
                               const std::vector<int>& rows, int bins)
    : bins_(bins), num_rows_(static_cast<int>(rows.size())) {
  PF_CHECK_GT(bins, 1);
  PF_CHECK(!rows.empty());
  ids_.reserve(features.cols());
  for (int f = 0; f < features.cols(); ++f) {
    ids_.push_back(BinFeature(features, f, rows, bins));
  }
}

double BinnedFeatures::MutualInformation(int feature_a, int feature_b) const {
  const std::vector<int>& a = ids_[feature_a];
  const std::vector<int>& b = ids_[feature_b];
  std::vector<double> joint(bins_ * bins_, 0.0);
  std::vector<double> marginal_a(bins_, 0.0);
  std::vector<double> marginal_b(bins_, 0.0);
  for (int i = 0; i < num_rows_; ++i) {
    joint[a[i] * bins_ + b[i]] += 1.0;
    marginal_a[a[i]] += 1.0;
    marginal_b[b[i]] += 1.0;
  }
  const double total = static_cast<double>(num_rows_);
  const double h_joint = EntropyFromCounts(joint, total);
  const double h_a = EntropyFromCounts(marginal_a, total);
  const double h_b = EntropyFromCounts(marginal_b, total);
  return std::max(0.0, h_a + h_b - h_joint);
}

}  // namespace pafeat
