#include "rl/dqn_agent.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/logging.h"

namespace pafeat {

namespace {

// EMA rate of PopArt's per-task target statistics.
constexpr float kPopArtBeta = 0.02f;

}  // namespace

DqnAgent::DqnAgent(const DqnConfig& config, Rng* rng) : config_(config) {
  online_ = std::make_unique<DuelingNet>(config.net, rng);
  target_ = std::make_unique<DuelingNet>(config.net, rng);
  target_->CopyParamsFrom(*online_);
  optimizer_ = std::make_unique<AdamOptimizer>(config.learning_rate);
}

float DqnAgent::CurrentEpsilon() const {
  if (config_.epsilon_decay_steps <= 0) return config_.epsilon_end;
  const double progress =
      std::min(1.0, static_cast<double>(train_steps_) /
                        config_.epsilon_decay_steps);
  return static_cast<float>(config_.epsilon_start +
                            progress * (config_.epsilon_end -
                                        config_.epsilon_start));
}

// Steady-state entry point of the batched inference plane: every per-step
// greedy query in training and serving funnels through here, so it must
// stay heap-quiet (arena scratch only) — enforced by pafeat-analyze
// (hot-path-alloc).
// analyze: hot-path-root
void DqnAgent::ActBatch(int rows, const float* observations,
                        int* actions) const {
  PF_CHECK_GT(rows, 0);
  const int num_actions = config_.net.num_actions;
  InferenceArena* arena = InferenceArena::ThreadLocal();
  ArenaScope scope(arena);
  float* q = arena->Alloc(static_cast<std::size_t>(rows) * num_actions);
  online_->PredictBatchInto(rows, observations, arena, q);
  for (int r = 0; r < rows; ++r) {
    const float* q_row = q + static_cast<std::size_t>(r) * num_actions;
    // First-max tie-breaking.
    int best = 0;
    for (int a = 1; a < num_actions; ++a) {
      if (q_row[a] > q_row[best]) best = a;
    }
    actions[r] = best;
  }
}

void DqnAgent::QValuesBatchInto(int rows, const float* observations,
                                float* q_out) const {
  online_->PredictBatchInto(rows, observations, InferenceArena::ThreadLocal(),
                            q_out);
}

void DqnAgent::EnsurePopArtSize(int task_id) {
  if (task_id >= static_cast<int>(popart_mean_.size())) {
    popart_mean_.resize(task_id + 1, 0.0);
    popart_sq_.resize(task_id + 1, 1.0);
    popart_init_.resize(task_id + 1, false);
  }
}

std::pair<double, double> DqnAgent::PopArtStats(int task_id) const {
  if (task_id >= static_cast<int>(popart_mean_.size()) ||
      !popart_init_[task_id]) {
    return {0.0, 1.0};
  }
  const double mean = popart_mean_[task_id];
  const double var = std::max(1e-4, popart_sq_[task_id] - mean * mean);
  return {mean, std::sqrt(var)};
}

DqnAgent::AgentTrainingState DqnAgent::ExportTrainingState() const {
  AgentTrainingState state;
  state.train_steps = train_steps_;
  state.target_params = target_->SerializeParams();
  optimizer_->ExportState(&state.adam_step, &state.adam_m, &state.adam_v);
  state.popart_mean = popart_mean_;
  state.popart_sq = popart_sq_;
  state.popart_init.reserve(popart_init_.size());
  for (const bool init : popart_init_) {
    state.popart_init.push_back(init ? 1 : 0);
  }
  return state;
}

bool DqnAgent::ImportTrainingState(const AgentTrainingState& state) {
  if (state.train_steps < 0) return false;
  if (state.popart_mean.size() != state.popart_sq.size() ||
      state.popart_mean.size() != state.popart_init.size()) {
    return false;
  }
  if (!target_->DeserializeParams(state.target_params)) return false;
  if (!optimizer_->ImportState(state.adam_step, state.adam_m, state.adam_v,
                               online_->Params())) {
    return false;
  }
  train_steps_ = state.train_steps;
  popart_mean_ = state.popart_mean;
  popart_sq_ = state.popart_sq;
  popart_init_.assign(state.popart_init.size(), false);
  for (size_t i = 0; i < state.popart_init.size(); ++i) {
    popart_init_[i] = state.popart_init[i] != 0;
  }
  return true;
}

void LearnerBatch::Resize(int rows, int obs_dim) {
  if (observations.rows() != rows || observations.cols() != obs_dim) {
    observations = Matrix(rows, obs_dim);
    next_observations = Matrix(rows, obs_dim);
  }
  actions.resize(rows);
  rewards.resize(rows);
  done.resize(rows);
  task_ids.resize(rows);
}

double DqnAgent::TrainBatch(const std::vector<BatchItem>& batch) {
  PF_CHECK(!batch.empty());
  const int batch_size = static_cast<int>(batch.size());
  const int obs_dim = static_cast<int>(batch[0].observation.size());
  batch_.Resize(batch_size, obs_dim);
  for (int i = 0; i < batch_size; ++i) {
    PF_CHECK_EQ(static_cast<int>(batch[i].observation.size()), obs_dim);
    PF_CHECK_EQ(static_cast<int>(batch[i].next_observation.size()), obs_dim);
    std::copy(batch[i].observation.begin(), batch[i].observation.end(),
              batch_.observations.Row(i));
    std::copy(batch[i].next_observation.begin(),
              batch[i].next_observation.end(), batch_.next_observations.Row(i));
    batch_.actions[i] = batch[i].action;
    batch_.rewards[i] = batch[i].reward;
    batch_.done[i] = batch[i].done ? 1 : 0;
    batch_.task_ids[i] = batch[i].task_id;
  }
  return TrainBatch(batch_);
}

double DqnAgent::TrainBatch(const LearnerBatch& batch) {
  const int batch_size = batch.rows();
  PF_CHECK_GT(batch_size, 0);
  PF_CHECK_EQ(batch.next_observations.rows(), batch_size);
  PF_CHECK_EQ(static_cast<int>(batch.actions.size()), batch_size);
  const int num_actions = config_.net.num_actions;

  // TD targets from the frozen target network (Eqn 1b).
  const Matrix next_q = target_->Predict(batch.next_observations);
  std::vector<double> targets(batch_size);
  for (int i = 0; i < batch_size; ++i) {
    double max_next = next_q.At(i, 0);
    for (int a = 1; a < num_actions; ++a) {
      max_next = std::max(max_next, static_cast<double>(next_q.At(i, a)));
    }
    if (config_.use_popart) {
      // The target network predicts normalized values; denormalize with the
      // task's statistics before bootstrapping.
      const auto [mean, stddev] = PopArtStats(batch.task_ids[i]);
      max_next = max_next * stddev + mean;
    }
    targets[i] = batch.rewards[i] +
                 (batch.done[i] != 0 ? 0.0 : config_.gamma * max_next);
  }

  if (config_.use_popart) {
    // Update per-task statistics from the unnormalized targets, then
    // normalize the regression targets (simplified PopArt: statistics
    // adaptation without the output-preserving weight correction).
    for (int i = 0; i < batch_size; ++i) {
      const int task = batch.task_ids[i];
      EnsurePopArtSize(task);
      if (!popart_init_[task]) {
        popart_mean_[task] = targets[i];
        popart_sq_[task] = targets[i] * targets[i] + 1.0;
        popart_init_[task] = true;
      } else {
        const double beta = kPopArtBeta;
        popart_mean_[task] =
            (1.0 - beta) * popart_mean_[task] + beta * targets[i];
        popart_sq_[task] =
            (1.0 - beta) * popart_sq_[task] + beta * targets[i] * targets[i];
      }
    }
    for (int i = 0; i < batch_size; ++i) {
      const auto [mean, stddev] = PopArtStats(batch.task_ids[i]);
      targets[i] = (targets[i] - mean) / stddev;
    }
  }

  // Forward + squared-error loss on the taken actions (Eqn 1a).
  const Matrix q = online_->Forward(batch.observations);
  Matrix grad(batch_size, num_actions);
  double loss = 0.0;
  const float inv_batch = 1.0f / batch_size;
  for (int i = 0; i < batch_size; ++i) {
    const int action = batch.actions[i];
    PF_CHECK_GE(action, 0);
    PF_CHECK_LT(action, num_actions);
    const double error = q.At(i, action) - targets[i];
    loss += error * error;
    grad.At(i, action) = static_cast<float>(2.0 * error) * inv_batch;
  }
  loss /= batch_size;

  online_->ZeroGrad();
  online_->Backward(grad);
  optimizer_->Step(online_->Params(), online_->Grads());

  ++train_steps_;
  if (config_.target_sync_every > 0 &&
      train_steps_ % config_.target_sync_every == 0) {
    target_->CopyParamsFrom(*online_);
  }
  return loss;
}

}  // namespace pafeat
