#ifndef PAFEAT_DATA_SPLIT_H_
#define PAFEAT_DATA_SPLIT_H_

#include <vector>

#include "common/rng.h"
#include "data/table.h"

namespace pafeat {

struct TrainTestSplit {
  std::vector<int> train_rows;
  std::vector<int> test_rows;
};

// Random split with the paper's 70/30 default (§IV-A4).
TrainTestSplit MakeSplit(int num_rows, double train_fraction, Rng* rng);

// Stratified split: preserves the positive rate of `labels` (0/1 floats) in
// both partitions — useful when a task's positive rate is near the 0.25
// lower end of the evaluation datasets and a random 30% test cut could
// otherwise end up with very few positives.
TrainTestSplit MakeStratifiedSplit(const std::vector<float>& labels,
                                   double train_fraction, Rng* rng);

// Per-feature z-score standardizer fitted on training rows only.
class Standardizer {
 public:
  // Fits mean/stddev per column over the given rows of `features`.
  void Fit(const Matrix& features, const std::vector<int>& rows);

  // Standardizes every row of `features` in place and returns it: pass a
  // copy to keep the raw values.
  Matrix Transform(Matrix features) const;

 private:
  std::vector<float> means_;
  std::vector<float> stddevs_;
};

}  // namespace pafeat

#endif  // PAFEAT_DATA_SPLIT_H_
