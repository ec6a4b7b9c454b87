#ifndef PAFEAT_NN_MLP_H_
#define PAFEAT_NN_MLP_H_

#include <vector>

#include "common/rng.h"
#include "nn/activation.h"
#include "nn/workspace.h"
#include "tensor/matrix.h"

namespace pafeat {

struct MlpConfig {
  int input_dim = 0;
  std::vector<int> hidden_dims;
  int output_dim = 0;
  Activation hidden_activation = Activation::kRelu;
  Activation output_activation = Activation::kLinear;
};

// Fully-connected network with manual backpropagation — the project's
// replacement for the PyTorch modules the paper uses (both the Q-networks
// and the reward classifier are MLPs).
//
// Forward() caches per-layer activations for a subsequent Backward();
// Predict() is the cache-free inference path.
class Mlp {
 public:
  Mlp(const MlpConfig& config, Rng* rng);

  // Batch forward pass (batch x input_dim) -> (batch x output_dim), caching
  // intermediate activations for Backward.
  const Matrix& Forward(const Matrix& input);

  // Inference-only forward pass; does not disturb the training cache.
  Matrix Predict(const Matrix& input) const;

  // Allocation-free inference: writes the (rows x output_dim) result to
  // `out`, drawing intermediate layer buffers from `arena` (released on
  // return; zero heap allocations once the arena is warm). `input` is rows x
  // input_dim, contiguous. Bit-identical to Predict — same kernels, same
  // shapes.
  void PredictInto(int rows, const float* input, InferenceArena* arena,
                   float* out) const;

  // Runs layers [first_layer, num_layers()) on `input` (rows x that layer's
  // input dim). PredictInto is PredictTailInto(0, ...); the masked fast path
  // computes layer 0 itself and hands the tail here.
  void PredictTailInto(int first_layer, int rows, const float* input,
                       InferenceArena* arena, float* out) const;

  // Batched-inference forward pass (DESIGN.md "Batched inference plane"):
  // same layers and shapes as PredictInto, but every layer product runs
  // through kernels::GemmNTRowwise, whose per-row bits are independent of
  // the batch size. Row r of the result is therefore bit-identical to
  // PredictInto(1, row r) — live episodes can join and leave the batch
  // without perturbing anyone's trajectory. Training keeps PredictInto's
  // m >= 8 transpose+NN strategy, which is faster at fixed batch sizes but
  // batch-shape-sensitive.
  void PredictBatchInto(int rows, const float* input, InferenceArena* arena,
                        float* out) const;

  // Masked-subset inference fast path (DESIGN.md "Inference fast path"):
  // first layer as a column-gathered product over the `ncols` selected
  // columns of `x` (rows x ldx, only the listed columns are read), then the
  // remaining layers as usual. `w0t` is the transposed first-layer weight
  // (input_dim x first-layer width, from FirstLayerWeightTransposed), kept
  // by the caller so repeated queries share it. Cost is O(rows * ncols *
  // width) instead of O(rows * input_dim * width), and the result is
  // bit-identical to PredictGatheredReference on the zero-masked batch.
  // Runs AccumulateGathered into a zeroed sum, then FinishGathered.
  void PredictGathered(int rows, const float* x, int ldx, const int* cols,
                       int ncols, const Matrix& w0t, InferenceArena* arena,
                       float* out) const;

  // The two halves of PredictGathered, for callers that keep the first-layer
  // sum between queries (a scan's SubsetRecord). AccumulateGathered adds
  // the listed columns' share of the first-layer product to `sum` (rows x
  // first-layer width, before the bias) with kernels::GemmGatherNN: one
  // rounded add per list entry, in list order, so accumulating [c1..cj] and
  // later [cj+1..ck] leaves exactly the bits of one pass over [c1..ck].
  // FinishGathered adds the bias, applies the activation (one fused pass for
  // ReLU, kernels::AddBiasRelu) and runs the remaining layers from `sum`,
  // which it leaves untouched.
  void AccumulateGathered(int rows, const float* x, int ldx, const int* cols,
                          int ncols, const Matrix& w0t, float* sum) const;
  void FinishGathered(int rows, const float* sum, InferenceArena* arena,
                      float* out) const;

  // FinishGathered through the batched plane: the layers after the first run
  // on kernels::GemmNTRowwise, as in PredictBatchInto. A caller that computes
  // the first layer's sum (rows x first-layer width, before the bias) with
  // PredictBatchInto's bits gets PredictBatchInto's rows; the greedy scan's
  // first-layer carry does (DuelingNet::FinishCarry).
  void FinishBatchInto(int rows, const float* sum, InferenceArena* arena,
                       float* out) const;

  // Reference implementation of the masked-inference summation order: the
  // full-width product over all input_dim columns of `x` (masked columns
  // are expected to hold zeros), same per-element accumulation order as
  // PredictGathered. Kept for the bitwise-equivalence tests.
  void PredictGatheredReference(int rows, const float* x, int ldx,
                                const Matrix& w0t, InferenceArena* arena,
                                float* out) const;

  // The first layer's weight, transposed to input_dim x width: the operand
  // layout PredictGathered wants (weight rows indexed by input column).
  Matrix FirstLayerWeightTransposed() const;

  int num_layers() const { return static_cast<int>(layers_.size()); }
  const Matrix& layer_weight(int i) const { return layers_[i].weight; }
  int layer_output_dim(int i) const { return layers_[i].weight.rows(); }

  // Backpropagates dL/d(output) through the cached forward pass, accumulating
  // parameter gradients, and returns dL/d(input).
  Matrix Backward(const Matrix& grad_output);

  // Backward for a net whose input gradient nobody reads (a Q-network
  // trunk, the reward classifier): accumulates bit-identical parameter
  // gradients and skips the first layer's input-gradient product, the
  // widest product of the pass.
  void BackwardParams(const Matrix& grad_output);

  // Zeroes the parameter gradients, sizing them first if
  // ReleaseTrainingState freed them.
  void ZeroGrad();

  // Frees what only training reads: every layer's cached input and output
  // and the parameter gradients. Inference reads none of it, and ZeroGrad
  // sizes the gradients again, so a released net can still train.
  void ReleaseTrainingState();

  // Mutable views over all parameters / gradients, in a stable order, for
  // the optimizers and for target-network synchronization.
  std::vector<Matrix*> Params();
  std::vector<Matrix*> Grads();

  // Copies parameters from a same-architecture network.
  void CopyParamsFrom(const Mlp& other);

  // Flat (de)serialization; Deserialize returns false on a size mismatch.
  std::vector<float> SerializeParams() const;
  bool DeserializeParams(const std::vector<float>& flat);

  int NumParams() const;
  const MlpConfig& config() const { return config_; }

 private:
  // Shared body of PredictTailInto / PredictBatchInto; `rowwise` selects the
  // batch-size-independent GemmNTRowwise kernel for every layer.
  void PredictTailImpl(int first_layer, int rows, const float* input,
                       InferenceArena* arena, float* out, bool rowwise) const;
  // Shared body of FinishGathered / FinishBatchInto.
  void FinishImpl(int rows, const float* sum, InferenceArena* arena,
                  float* out, bool rowwise) const;
  // Shared body of Backward / BackwardParams; returns an empty matrix
  // unless `input_grad`.
  Matrix BackwardImpl(const Matrix& grad_output, bool input_grad);

  struct Layer {
    Matrix weight;  // out x in
    Matrix bias;    // 1 x out
    Matrix weight_grad;
    Matrix bias_grad;
    Activation activation;
    // Training cache.
    Matrix input;   // batch x in
    Matrix output;  // batch x out (post-activation)
  };

  MlpConfig config_;
  std::vector<Layer> layers_;
};

}  // namespace pafeat

#endif  // PAFEAT_NN_MLP_H_
