#ifndef PAFEAT_NN_DUELING_NET_H_
#define PAFEAT_NN_DUELING_NET_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "nn/mlp.h"
#include "tensor/matrix.h"

namespace pafeat {

struct DuelingNetConfig {
  int input_dim = 0;
  std::vector<int> trunk_hidden = {64, 64};
  int num_actions = 2;
  // When true an extra trunk layer is appended, mimicking PopArt's additional
  // rescaling layer (the paper attributes PopArt's slightly higher iteration
  // time to it; Table II).
  bool extra_rescale_layer = false;
};

// Dueling Q-network (Wang et al., 2016; paper Eqns 1c / 3a-3c):
//   Q(s, a) = V(s) + A(s, a) - mean_a' A(s, a').
// A shared MLP trunk feeds a scalar value head and a per-action advantage
// head; gradients of the aggregation are backpropagated analytically.
class DuelingNet {
 public:
  DuelingNet(const DuelingNetConfig& config, Rng* rng);

  // Training forward pass: (batch x input_dim) -> (batch x num_actions).
  Matrix Forward(const Matrix& states);

  // Inference-only Q-values over whole matrices (the learner's TD targets).
  Matrix Predict(const Matrix& states) const;

  // Batched-inference forward pass (DESIGN.md "Batched inference plane"):
  // writes the (rows x num_actions) Q-values to `q_out`, drawing every
  // intermediate buffer (trunk features, value head) from `arena`. Trunk and
  // heads run through Mlp::PredictBatchInto, so row r of the Q-matrix is
  // bit-identical to a one-row Predict of row r at any batch size. Every
  // per-step Q query (DqnAgent::ActBatch, the greedy execution path)
  // funnels here; no code outside the net issues a non-batched query.
  void PredictBatchInto(int rows, const float* states, InferenceArena* arena,
                        float* q_out) const;

  // Backpropagates dL/dQ through the cached Forward.
  void Backward(const Matrix& grad_q);

  void ZeroGrad();
  std::vector<Matrix*> Params();
  std::vector<Matrix*> Grads();
  void CopyParamsFrom(const DuelingNet& other);

  std::vector<float> SerializeParams() const;
  bool DeserializeParams(const std::vector<float>& flat);

  int NumParams() const;
  // NumParams() of a net built from `config`, counted arithmetically with
  // overflow checks instead of allocating one; nullopt when a dimension is
  // not positive, the trunk is empty, or the count exceeds INT_MAX. The
  // guard a loader runs before trusting a header's architecture.
  static std::optional<int> CountParams(const DuelingNetConfig& config);
  const DuelingNetConfig& config() const { return config_; }

 private:
  // Splits V (batch x 1) and A (batch x num_actions) into Q.
  static Matrix Aggregate(const Matrix& value, const Matrix& advantage);

  // Shared body of Predict / PredictBatchInto; `batched` routes the trunk
  // and heads through the row-bit-stable batched kernels.
  void PredictImpl(int rows, const float* states, InferenceArena* arena,
                   float* q_out, bool batched) const;

  DuelingNetConfig config_;
  Mlp trunk_;
  Mlp value_head_;
  Mlp advantage_head_;
};

}  // namespace pafeat

#endif  // PAFEAT_NN_DUELING_NET_H_
