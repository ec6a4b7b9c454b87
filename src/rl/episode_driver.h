#ifndef PAFEAT_RL_EPISODE_DRIVER_H_
#define PAFEAT_RL_EPISODE_DRIVER_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "rl/fs_env.h"
#include "rl/types.h"

namespace pafeat {

// Resumable episode state machine for the batched inference plane (DESIGN.md
// "Batched inference plane"). A driver holds the episode's environment copy,
// its forked RNG stream, and its partial trajectory, and is advanced one
// step at a time by the iteration loop:
//
//   1. PlanStep(epsilon)   serial, in plan order: draws this step's
//                          exploration decision from the episode stream
//                          and returns true when the step needs a greedy
//                          Q query;
//   2. WriteObservation /  the caller gathers all querying drivers'
//      SetPlannedAction    observations into one batch, runs a single
//                          DqnAgent::ActBatch, and hands each driver its
//                          argmax;
//   3. ApplyAction         parallel-safe: steps the private environment,
//                          shapes the reward, and records the step (the
//                          action, stored reward and done flag; the states
//                          follow from the recorded start state).
//
// Draw order on the episode stream, per step: a random-policy rollout draws
// its action (UniformInt); a policy step draws the epsilon Bernoulli and,
// when exploring, the action (UniformInt) — both in PlanStep — and then the
// reward shaper draws whatever it consumes in ApplyAction. Every draw comes
// from the episode's own stream in that order, and batched Q rows carry the
// bits of a one-row query, so a driver's trajectory is a function of its
// plan alone — the same at any thread count and any batch composition.
class EpisodeDriver {
 public:
  // Reward hook applied to the raw environment reward before it is stored;
  // may draw from the episode stream (after the step's PlanStep draws).
  // Empty = store the raw reward.
  using RewardShapeFn = std::function<double(double raw_reward, Rng* rng)>;

  // Copies `env` (a representation vector, the state, and the scan's subset
  // record with its first-layer reward sum of about eval rows x classifier
  // width floats) so concurrent episodes on the same task cannot interfere:
  // each driver's scan folds its reward misses into its own record. The
  // reward cache behind the evaluator stays shared and locked. `rng` is the
  // episode's forked stream.
  EpisodeDriver(const FeatureSelectionEnv& env, const Rng& rng);

  // Default initial state (empty subset, position 0). Either start records
  // the state the episode really starts from as the trajectory's start.
  void StartDefault();
  // Customized initial state with its decision prefix and policy flag (the
  // ITE entry point). A degenerate state that is already terminal falls
  // back to the default initial state, discarding prefix and flag.
  void StartFrom(const EnvState& state, const std::vector<int>& prefix,
                 bool random_policy);

  bool done() const { return env_.Done(); }

  // Phase 1 (serial, plan order). Decides where this step's action comes
  // from: returns true when the driver needs a greedy Q query for its
  // current observation; false when the action was drawn from the episode
  // stream (epsilon exploration, or a random-policy rollout).
  bool PlanStep(float epsilon);

  // Copies the observation for the pending greedy query into `row`
  // (observation_dim() floats). Only meaningful after PlanStep returned
  // true.
  void WriteObservation(float* row) const;

  // Phase 2: the batched argmax for the pending greedy query.
  void SetPlannedAction(int action);

  // Phase 3 (safe on a pool worker; touches only this driver and the shared
  // locked evaluator). Applies the planned action: environment step, reward
  // shaping, step record.
  void ApplyAction(const RewardShapeFn& shape);

  // The episode's decision path from the root: the start prefix plus every
  // applied action (what InitialStateProvider::OnTrajectory consumes).
  const std::vector<int>& actions() const { return actions_; }

  // Moves the finished trajectory out, stamping the final subset's true
  // performance as the episode return. Call once, after done().
  Trajectory TakeTrajectory();

 private:
  FeatureSelectionEnv env_;
  Rng rng_;
  bool random_policy_ = false;
  int pending_action_ = -1;
  Trajectory trajectory_;
  std::vector<int> actions_;
};

}  // namespace pafeat

#endif  // PAFEAT_RL_EPISODE_DRIVER_H_
