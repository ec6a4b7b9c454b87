#ifndef PAFEAT_TESTS_PEARSON_REFERENCE_H_
#define PAFEAT_TESTS_PEARSON_REFERENCE_H_

#include <cmath>
#include <vector>

#include "data/stats.h"
#include "tensor/matrix.h"

namespace pafeat {

// The scalar definition of the task representation: per column, built over
// the row list, |PearsonCorrelation| with the labels over the same rows.
inline std::vector<float> PerColumnPearson(const Matrix& features,
                                           const std::vector<float>& labels,
                                           const std::vector<int>& rows) {
  std::vector<float> label_subset;
  for (int r : rows) label_subset.push_back(labels[r]);
  std::vector<float> column(rows.size());
  std::vector<float> repr(features.cols());
  for (int c = 0; c < features.cols(); ++c) {
    for (size_t i = 0; i < rows.size(); ++i) {
      column[i] = features.At(rows[i], c);
    }
    repr[c] =
        static_cast<float>(std::abs(PearsonCorrelation(column, label_subset)));
  }
  return repr;
}

}  // namespace pafeat

#endif  // PAFEAT_TESTS_PEARSON_REFERENCE_H_
