#include "nn/dueling_net.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace pafeat {
namespace {

MlpConfig TrunkConfig(const DuelingNetConfig& config) {
  PF_CHECK(!config.trunk_hidden.empty());
  MlpConfig mlp;
  mlp.input_dim = config.input_dim;
  std::vector<int> hidden = config.trunk_hidden;
  if (config.extra_rescale_layer) hidden.push_back(hidden.back());
  mlp.output_dim = hidden.back();
  hidden.pop_back();
  mlp.hidden_dims = hidden;
  mlp.hidden_activation = Activation::kRelu;
  mlp.output_activation = Activation::kRelu;
  return mlp;
}

MlpConfig HeadConfig(int input_dim, int output_dim) {
  MlpConfig mlp;
  mlp.input_dim = input_dim;
  mlp.output_dim = output_dim;
  mlp.output_activation = Activation::kLinear;
  return mlp;
}

}  // namespace

DuelingNet::DuelingNet(const DuelingNetConfig& config, Rng* rng)
    : config_(config),
      trunk_(TrunkConfig(config), rng),
      value_head_(HeadConfig(trunk_.config().output_dim, 1), rng),
      advantage_head_(
          HeadConfig(trunk_.config().output_dim, config.num_actions), rng) {
  PF_CHECK_GT(config.num_actions, 1);
}

Matrix DuelingNet::Aggregate(const Matrix& value, const Matrix& advantage) {
  Matrix q = advantage;
  const int num_actions = advantage.cols();
  for (int r = 0; r < q.rows(); ++r) {
    float mean_adv = 0.0f;
    const float* adv_row = advantage.Row(r);
    for (int a = 0; a < num_actions; ++a) mean_adv += adv_row[a];
    mean_adv /= num_actions;
    float* q_row = q.Row(r);
    const float v = value.At(r, 0);
    for (int a = 0; a < num_actions; ++a) q_row[a] += v - mean_adv;
  }
  return q;
}

Matrix DuelingNet::Forward(const Matrix& states) {
  const Matrix& features = trunk_.Forward(states);
  const Matrix& value = value_head_.Forward(features);
  const Matrix& advantage = advantage_head_.Forward(features);
  return Aggregate(value, advantage);
}

Matrix DuelingNet::Predict(const Matrix& states) const {
  Matrix q(states.rows(), config_.num_actions);
  PredictImpl(states.rows(), states.data(), InferenceArena::ThreadLocal(),
              q.data(), /*batched=*/false);
  return q;
}

void DuelingNet::PredictBatchInto(int rows, const float* states,
                                  InferenceArena* arena, float* q_out) const {
  PredictImpl(rows, states, arena, q_out, /*batched=*/true);
}

int DuelingNet::carry_size() const {
  return first_layer_width() * kernels::kRowwiseLanes;
}

void DuelingNet::InitCarry(int prefix, const float* observation,
                           float* carry) const {
  const Matrix& weight = trunk_.layer_weight(0);
  kernels::RowwiseCarryInit(weight.rows(), prefix, observation, weight.data(),
                            weight.cols(), carry);
}

void DuelingNet::AppendCarry(int column, float* carry) const {
  // observation[column] == 1 makes the lane's term 1 * w, which rounds to w
  // under a fused or a separate multiply-add alike: one add per lane.
  const Matrix& weight = trunk_.layer_weight(0);
  float* lane = carry + column % kernels::kRowwiseLanes;
  for (int h = 0; h < weight.rows(); ++h) {
    lane[static_cast<std::size_t>(h) * kernels::kRowwiseLanes] +=
        weight.At(h, column);
  }
}

void DuelingNet::FinishCarry(int prefix, const float* observation,
                             const float* carry, float* sum) const {
  const Matrix& weight = trunk_.layer_weight(0);
  // The zeroed row makes each stored sum 0 + s, as PredictBatchInto's is.
  std::fill_n(sum, weight.rows(), 0.0f);
  kernels::RowwiseCarryFinish(weight.rows(), weight.cols(), prefix,
                              observation, weight.data(), weight.cols(),
                              carry, sum);
}

void DuelingNet::PredictFromFirstLayerInto(int rows, const float* sum,
                                           InferenceArena* arena,
                                           float* q_out) const {
  ArenaScope scope(arena);
  float* features = arena->Alloc(static_cast<std::size_t>(rows) *
                                 trunk_.config().output_dim);
  trunk_.FinishBatchInto(rows, sum, arena, features);
  HeadsInto(rows, features, arena, q_out, /*batched=*/true);
}

void DuelingNet::PredictImpl(int rows, const float* states,
                             InferenceArena* arena, float* q_out,
                             bool batched) const {
  ArenaScope scope(arena);
  float* features = arena->Alloc(static_cast<std::size_t>(rows) *
                                 trunk_.config().output_dim);
  if (batched) {
    trunk_.PredictBatchInto(rows, states, arena, features);
  } else {
    trunk_.PredictInto(rows, states, arena, features);
  }
  HeadsInto(rows, features, arena, q_out, batched);
}

void DuelingNet::HeadsInto(int rows, const float* features,
                           InferenceArena* arena, float* q_out,
                           bool batched) const {
  ArenaScope scope(arena);
  const int num_actions = config_.num_actions;
  float* value = arena->Alloc(static_cast<std::size_t>(rows));
  if (batched) {
    value_head_.PredictBatchInto(rows, features, arena, value);
    advantage_head_.PredictBatchInto(rows, features, arena, q_out);
  } else {
    value_head_.PredictInto(rows, features, arena, value);
    // Advantages land straight in q_out; the aggregation then runs in place
    // with the exact loop (and rounding order) of Aggregate.
    advantage_head_.PredictInto(rows, features, arena, q_out);
  }
  // The per-row aggregation below only ever reads within its own row, so it
  // preserves the row-bit-stability the batched kernels guarantee.
  for (int r = 0; r < rows; ++r) {
    float* q_row = q_out + static_cast<std::size_t>(r) * num_actions;
    float mean_adv = 0.0f;
    for (int a = 0; a < num_actions; ++a) mean_adv += q_row[a];
    mean_adv /= num_actions;
    const float v = value[r];
    for (int a = 0; a < num_actions; ++a) q_row[a] += v - mean_adv;
  }
}

void DuelingNet::Backward(const Matrix& grad_q) {
  const int num_actions = config_.num_actions;
  PF_CHECK_EQ(grad_q.cols(), num_actions);
  // dL/dV_r = sum_a dQ_ra ; dL/dA_ra = dQ_ra - mean_a'(dQ_ra').
  Matrix grad_value(grad_q.rows(), 1);
  Matrix grad_advantage = grad_q;
  for (int r = 0; r < grad_q.rows(); ++r) {
    const float* gq = grad_q.Row(r);
    float total = 0.0f;
    for (int a = 0; a < num_actions; ++a) total += gq[a];
    grad_value.At(r, 0) = total;
    const float mean = total / num_actions;
    float* ga = grad_advantage.Row(r);
    for (int a = 0; a < num_actions; ++a) ga[a] -= mean;
  }
  Matrix grad_features = value_head_.Backward(grad_value);
  grad_features.Add(advantage_head_.Backward(grad_advantage));
  // The trunk's input gradient would be dL/d(observation): nothing reads it.
  trunk_.BackwardParams(grad_features);
}

void DuelingNet::ZeroGrad() {
  trunk_.ZeroGrad();
  value_head_.ZeroGrad();
  advantage_head_.ZeroGrad();
}

std::vector<Matrix*> DuelingNet::Params() {
  std::vector<Matrix*> params = trunk_.Params();
  for (Matrix* p : value_head_.Params()) params.push_back(p);
  for (Matrix* p : advantage_head_.Params()) params.push_back(p);
  return params;
}

std::vector<Matrix*> DuelingNet::Grads() {
  std::vector<Matrix*> grads = trunk_.Grads();
  for (Matrix* g : value_head_.Grads()) grads.push_back(g);
  for (Matrix* g : advantage_head_.Grads()) grads.push_back(g);
  return grads;
}

void DuelingNet::CopyParamsFrom(const DuelingNet& other) {
  trunk_.CopyParamsFrom(other.trunk_);
  value_head_.CopyParamsFrom(other.value_head_);
  advantage_head_.CopyParamsFrom(other.advantage_head_);
}

std::vector<float> DuelingNet::SerializeParams() const {
  std::vector<float> flat = trunk_.SerializeParams();
  const std::vector<float> value = value_head_.SerializeParams();
  const std::vector<float> advantage = advantage_head_.SerializeParams();
  flat.insert(flat.end(), value.begin(), value.end());
  flat.insert(flat.end(), advantage.begin(), advantage.end());
  return flat;
}

bool DuelingNet::DeserializeParams(const std::vector<float>& flat) {
  if (static_cast<int>(flat.size()) != NumParams()) return false;
  auto begin = flat.begin();
  std::vector<float> trunk(begin, begin + trunk_.NumParams());
  begin += trunk_.NumParams();
  std::vector<float> value(begin, begin + value_head_.NumParams());
  begin += value_head_.NumParams();
  std::vector<float> advantage(begin, begin + advantage_head_.NumParams());
  return trunk_.DeserializeParams(trunk) &&
         value_head_.DeserializeParams(value) &&
         advantage_head_.DeserializeParams(advantage);
}

int DuelingNet::NumParams() const {
  return trunk_.NumParams() + value_head_.NumParams() +
         advantage_head_.NumParams();
}

std::optional<int> DuelingNet::CountParams(const DuelingNetConfig& config) {
  if (config.input_dim <= 0 || config.num_actions <= 0 ||
      config.trunk_hidden.empty()) {
    return std::nullopt;
  }
  // Every width is at most INT_MAX and the running total stays at most
  // INT_MAX, so each step fits in 64 bits.
  long long total = 0;
  const auto add_layer = [&total](long long fan_in, long long fan_out) {
    total += (fan_in + 1) * fan_out;  // weights plus biases
    return total <= std::numeric_limits<int>::max();
  };
  long long width = config.input_dim;
  for (const int hidden : config.trunk_hidden) {
    if (hidden <= 0 || !add_layer(width, hidden)) return std::nullopt;
    width = hidden;
  }
  if (config.extra_rescale_layer && !add_layer(width, width)) {
    return std::nullopt;
  }
  if (!add_layer(width, 1) || !add_layer(width, config.num_actions)) {
    return std::nullopt;
  }
  return static_cast<int>(total);
}

}  // namespace pafeat
