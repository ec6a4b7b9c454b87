#ifndef PAFEAT_NN_OPTIMIZER_H_
#define PAFEAT_NN_OPTIMIZER_H_

#include <vector>

#include "tensor/matrix.h"

namespace pafeat {

// Adam (Kingma & Ba, 2015) — the optimizer the paper uses for all networks —
// over a fixed set of parameter tensors. The parameter/gradient lists must
// have the same shapes on every Step call (the moments are keyed by
// position).
class AdamOptimizer {
 public:
  explicit AdamOptimizer(float learning_rate)
      : learning_rate_(learning_rate) {}

  // Applies one update: params[i] -= f(grads[i]).
  void Step(const std::vector<Matrix*>& params,
            const std::vector<Matrix*>& grads);

  // Warm-resume persistence (checkpoint v3): the step counter and the
  // moment vectors flattened in parameter order (both empty before the
  // first Step — the moments are created lazily).
  void ExportState(long long* step, std::vector<float>* m,
                   std::vector<float>* v) const;

  // Restores an exported state against the parameter set the optimizer will
  // drive (shapes come from `params`). Empty moments with step 0 reset to
  // the never-stepped state. Returns false when the flattened sizes do not
  // fit the parameter shapes.
  bool ImportState(long long step, const std::vector<float>& m,
                   const std::vector<float>& v,
                   const std::vector<Matrix*>& params);

 private:
  float learning_rate_;
  long long step_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace pafeat

#endif  // PAFEAT_NN_OPTIMIZER_H_
