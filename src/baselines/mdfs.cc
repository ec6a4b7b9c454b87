#include "baselines/mdfs.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "baselines/kbest.h"
#include "common/logging.h"
#include "common/timer.h"
#include "linalg/conjugate_gradient.h"
#include "linalg/knn_graph.h"

namespace pafeat {

Matrix MdfsSelector::SolveWeights(const Matrix& x, const Matrix& y) const {
  const int n = x.rows();
  const int m = x.cols();
  const int num_labels = y.cols();
  PF_CHECK_EQ(y.rows(), n);

  // Precompute the m x m operator pieces: A0 = X^T X + alpha X^T L X.
  const SymmetricSparse laplacian =
      BuildKnnLaplacian(x, std::min(config_.knn, n - 1), /*sigma=*/0.0);
  const Matrix lx = laplacian.MatMat(x);     // n x m
  Matrix a0 = x.TransposedMatMul(x);         // X^T X
  Matrix xtlx = x.TransposedMatMul(lx);      // X^T L X
  a0.Axpy(static_cast<float>(config_.alpha), xtlx);

  const Matrix xty = x.TransposedMatMul(y);  // m x L

  Matrix w(m, num_labels, 0.0f);
  std::vector<float> d(m, 1.0f);  // IRLS diagonal for the L2,1 term

  for (int round = 0; round < config_.irls_rounds; ++round) {
    // Solve (A0 + beta * D) w_l = (X^T Y)_l per label column by CG.
    auto apply = [&](const std::vector<float>& v) {
      std::vector<float> out(m, 0.0f);
      for (int i = 0; i < m; ++i) {
        const float* row = a0.Row(i);
        float acc = 0.0f;
        for (int j = 0; j < m; ++j) acc += row[j] * v[j];
        out[i] = acc + static_cast<float>(config_.beta) * d[i] * v[i];
      }
      return out;
    };
    CgOptions cg_options;
    cg_options.max_iterations = config_.cg_iterations;
    for (int l = 0; l < num_labels; ++l) {
      std::vector<float> rhs(m);
      std::vector<float> solution(m);
      for (int i = 0; i < m; ++i) {
        rhs[i] = xty.At(i, l);
        solution[i] = w.At(i, l);  // warm start from the previous round
      }
      ConjugateGradient(apply, rhs, &solution, cg_options);
      for (int i = 0; i < m; ++i) w.At(i, l) = solution[i];
    }
    // Reweight: d_i = 1 / (2 ||w_i||_2), the standard L2,1 IRLS step.
    for (int i = 0; i < m; ++i) {
      double norm = 0.0;
      for (int l = 0; l < num_labels; ++l) {
        norm += static_cast<double>(w.At(i, l)) * w.At(i, l);
      }
      d[i] = static_cast<float>(1.0 / (2.0 * std::sqrt(norm) + 1e-6));
    }
  }
  return w;
}

double MdfsSelector::Prepare(FsProblem* problem, const std::vector<int>& seen,
                             double max_feature_ratio) {
  (void)problem;
  seen_ = seen;
  max_feature_ratio_ = max_feature_ratio;
  return 0.0;
}

FeatureMask MdfsSelector::SelectForUnseen(FsProblem* problem,
                                          int unseen_label_index,
                                          double* execution_seconds) {
  WallTimer timer;
  const int m = problem->num_features();
  const int target = TargetSubsetSize(m, max_feature_ratio_);

  // Row subsample (the kNN graph is O(n^2 d)).
  std::vector<int> rows = problem->train_rows();
  if (static_cast<int>(rows.size()) > config_.row_cap) {
    rows.resize(config_.row_cap);
  }
  const Matrix x = problem->std_features().SelectRows(rows);

  std::vector<int> label_indices = seen_;
  label_indices.push_back(unseen_label_index);
  Matrix y(x.rows(), static_cast<int>(label_indices.size()));
  for (size_t l = 0; l < label_indices.size(); ++l) {
    const std::vector<float> labels =
        problem->LabelColumn(label_indices[l]);
    for (int r = 0; r < x.rows(); ++r) {
      // Center labels to {-1, +1} so the regression targets are balanced.
      y.At(r, static_cast<int>(l)) = labels[rows[r]] > 0.5f ? 1.0f : -1.0f;
    }
  }

  const Matrix w = SolveWeights(x, y);

  // Rank by row norm of W.
  std::vector<double> importance(m, 0.0);
  for (int i = 0; i < m; ++i) {
    for (int l = 0; l < w.cols(); ++l) {
      importance[i] += static_cast<double>(w.At(i, l)) * w.At(i, l);
    }
  }
  std::vector<int> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + target, order.end(),
                    [&](int a, int b) { return importance[a] > importance[b]; });
  order.resize(target);

  if (execution_seconds != nullptr) *execution_seconds = timer.ElapsedSeconds();
  return IndicesToMask(order, m);
}

}  // namespace pafeat
