#ifndef PAFEAT_RL_DQN_AGENT_H_
#define PAFEAT_RL_DQN_AGENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/dueling_net.h"
#include "nn/optimizer.h"
#include "rl/types.h"

namespace pafeat {

struct DqnConfig {
  DuelingNetConfig net;
  float gamma = 0.9f;
  float learning_rate = 1e-3f;
  // Target network is refreshed every this many gradient steps (Eqn 1b's
  // frozen parameters theta^-).
  int target_sync_every = 100;
  // Linear epsilon-greedy schedule over gradient steps.
  float epsilon_start = 1.0f;
  float epsilon_end = 0.05f;
  int epsilon_decay_steps = 2000;
  // Double DQN (van Hasselt et al., 2016): bootstrap with
  // Q_target(s', argmax_a Q_online(s', a)) instead of max_a Q_target(s', a),
  // removing the maximization bias. An optional extension beyond the paper.
  bool double_dqn = false;
  // PopArt baseline: per-task adaptive normalization of TD targets
  // (Hessel et al., 2019). Off for PA-FEAT itself.
  bool use_popart = false;
  float popart_beta = 0.02f;  // EMA rate of the target statistics
};

// Dueling Deep Q-Network agent (paper Eqns 1a-1c): an online DuelingNet
// trained by TD regression against a periodically-synchronized target
// network, with epsilon-greedy behaviour. This is the "global agent" of
// FEAT; "local agents" are realized by always acting with the freshest
// online parameters (synchronization is implicit in a single process).
class DqnAgent {
 public:
  DqnAgent(const DqnConfig& config, Rng* rng);

  // Greedy actions for a batch of observations (rows x obs_dim, contiguous):
  // one forward pass through the batched inference plane, then a per-row
  // first-max argmax. Zero heap allocations in steady state (the Q-values
  // live in the calling thread's InferenceArena), and row r's action is
  // bit-identical at any batch size — the kernels guarantee per-row bits
  // independent of the batch composition. Every per-step Q query in the
  // codebase is a batched query (DESIGN.md "Batched inference plane");
  // exploration is the caller's, drawn from its own stream
  // (EpisodeDriver::PlanStep).
  void ActBatch(int rows, const float* observations, int* actions) const;

  // Writes (rows x num_actions) online-network Q-values to `q_out`.
  void QValuesBatchInto(int rows, const float* observations,
                        float* q_out) const;

  // One gradient step on a batch; returns the TD loss (Eqn 1a).
  double TrainBatch(const std::vector<BatchItem>& batch);

  float CurrentEpsilon() const;
  long long train_steps() const { return train_steps_; }

  DuelingNet& online_net() { return *online_; }
  const DuelingNet& online_net() const { return *online_; }
  const DqnConfig& config() const { return config_; }

  // PopArt statistics for a task (mean, stddev); identity until trained.
  std::pair<double, double> PopArtStats(int task_id) const;

  // Everything TrainBatch depends on beyond the online parameters (which the
  // agent checkpoint already carries): warm-resume persistence for
  // checkpoint v3. A resumed agent takes bit-identical gradient steps.
  struct AgentTrainingState {
    long long train_steps = 0;
    std::vector<float> target_params;
    long long adam_step = 0;
    std::vector<float> adam_m;
    std::vector<float> adam_v;
    std::vector<double> popart_mean;
    std::vector<double> popart_sq;
    std::vector<std::uint8_t> popart_init;
  };
  AgentTrainingState ExportTrainingState() const;
  // Returns false (leaving the agent unspecified-but-safe) when the state
  // does not fit this agent's architecture.
  bool ImportTrainingState(const AgentTrainingState& state);

 private:
  void EnsurePopArtSize(int task_id);

  DqnConfig config_;
  std::unique_ptr<DuelingNet> online_;
  std::unique_ptr<DuelingNet> target_;
  std::unique_ptr<AdamOptimizer> optimizer_;
  long long train_steps_ = 0;

  // PopArt per-task first/second moment EMAs.
  std::vector<double> popart_mean_;
  std::vector<double> popart_sq_;
  std::vector<bool> popart_init_;

  // TrainBatch's dense (batch x obs_dim) inputs, kept between calls.
  Matrix observations_;
  Matrix next_observations_;
};

}  // namespace pafeat

#endif  // PAFEAT_RL_DQN_AGENT_H_
