#include "rl/episode_driver.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace pafeat {

EpisodeDriver::EpisodeDriver(const FeatureSelectionEnv& env, const Rng& rng)
    : env_(env), rng_(rng) {}

void EpisodeDriver::StartDefault() {
  env_.Reset();
  trajectory_.start = env_.state();
}

void EpisodeDriver::StartFrom(const EnvState& state,
                              const std::vector<int>& prefix,
                              bool random_policy) {
  env_.ResetTo(state);
  if (env_.Done()) {
    env_.Reset();  // degenerate customized state; fall back to default
  } else {
    actions_ = prefix;
    random_policy_ = random_policy;
  }
  trajectory_.start = env_.state();
}

// analyze: hot-path-root
bool EpisodeDriver::PlanStep(float epsilon) {
  PF_DCHECK(!env_.Done());
  PF_DCHECK_LT(pending_action_, 0);
  // A random-policy rollout draws only the action; a policy step draws the
  // epsilon Bernoulli and, when exploring, the random action — in that
  // order, on this stream.
  if (random_policy_) {
    pending_action_ = rng_.UniformInt(kNumActions);
    return false;
  }
  if (rng_.Bernoulli(epsilon)) {
    pending_action_ = rng_.UniformInt(kNumActions);
    return false;
  }
  return true;
}

// analyze: hot-path-root
void EpisodeDriver::WriteObservation(float* row) const {
  env_.ObservationInto(row);
}

void EpisodeDriver::SetPlannedAction(int action) {
  PF_DCHECK_LT(pending_action_, 0);
  PF_DCHECK_GE(action, 0);
  PF_DCHECK_LT(action, kNumActions);
  pending_action_ = action;
}

void EpisodeDriver::ApplyAction(const RewardShapeFn& shape) {
  PF_DCHECK_GE(pending_action_, 0);
  // Only the decision and its stored reward are recorded: the states
  // before and after it follow from the start state (Trajectory).
  const double raw_reward = env_.Step(pending_action_);
  StoredStep step;
  step.action = static_cast<uint8_t>(pending_action_);
  step.reward = static_cast<float>(
      shape ? shape(raw_reward, &rng_) : raw_reward);
  step.done = env_.Done();
  trajectory_.steps.push_back(step);
  actions_.push_back(pending_action_);
  pending_action_ = -1;
}

Trajectory EpisodeDriver::TakeTrajectory() {
  PF_DCHECK(env_.Done());
  // The E-Tree, the ITS and the difficulty diagnostics consume the final
  // subset's true performance, regardless of reward mode or shaping.
  trajectory_.episode_return = env_.current_performance();
  return std::move(trajectory_);
}

}  // namespace pafeat
