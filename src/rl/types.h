#ifndef PAFEAT_RL_TYPES_H_
#define PAFEAT_RL_TYPES_H_

#include <cstdint>
#include <vector>

#include "data/feature_mask.h"

namespace pafeat {

// Actions of the feature-selection MDP (paper §II-B).
inline constexpr int kActionDeselect = 0;
inline constexpr int kActionSelect = 1;
inline constexpr int kNumActions = 2;

// Compact environment state: the selection decisions so far plus the scan
// position (paper: "the state is to mark the corresponding seen task, record
// the selected features and the current scanning position"; the task mark is
// the environment's task representation and is appended when the state is
// expanded into an observation).
struct EnvState {
  FeatureMask mask;   // features selected so far
  int position = 0;   // next feature to scan

  bool operator==(const EnvState& other) const {
    return position == other.position && mask == other.mask;
  }
};

// One decision of a stored trajectory and what it earned: 8 bytes. Its
// states are not stored; Trajectory rebuilds them.
struct StoredStep {
  float reward = 0.0f;  // as stored for training (after reward shaping)
  uint8_t action = 0;
  bool done = false;
};

// The scan's state transition, FeatureSelectionEnv::Step without the
// reward: a select sets bit `position`, and every action advances the scan.
// Requires 0 <= position < m.
inline void AdvanceState(int action, EnvState* state) {
  if (action == kActionSelect) state->mask[state->position] = 1;
  ++state->position;
}

// A full episode as its start state and its decisions, plus its episode
// return (the final subset's reward). Every later state is the start state
// advanced by the decisions before it (AdvanceState): the state before step
// t has position start.position + t and is start.mask with bit
// start.position + s set for every select s < t. Deselect never clears a
// bit, so that is exact for any start mask: the default start, an ITE
// prefix state or a Go-Explore archive state.
struct Trajectory {
  EnvState start;
  std::vector<StoredStep> steps;
  double episode_return = 0.0;

  int num_steps() const { return static_cast<int>(steps.size()); }

  // Writes the state before step `step` (0 <= step <= num_steps()) into
  // `state`, reusing its mask's storage: the learner rebuilds every sampled
  // step into one scratch state without touching the heap. O(m + step).
  void StateBeforeInto(int step, EnvState* state) const {
    state->mask = start.mask;
    state->position = start.position;
    for (int s = 0; s < step; ++s) AdvanceState(steps[s].action, state);
  }

  EnvState StateBefore(int step) const {
    EnvState state;
    StateBeforeInto(step, &state);
    return state;
  }

  // The feature subset this trajectory maps to (paper: "each trajectory is
  // mapped to a selected feature subset"): the state after the last step.
  FeatureMask FinalMask() const { return StateBefore(num_steps()).mask; }
};

// A sampled step of a stored trajectory: the replay buffer's sample handle.
struct StepRef {
  const Trajectory* trajectory = nullptr;
  int step = 0;
};

// Dense training sample for the Q-network.
struct BatchItem {
  std::vector<float> observation;
  int action = 0;
  float reward = 0.0f;
  std::vector<float> next_observation;
  bool done = false;
  int task_id = 0;  // used by PopArt's per-task normalizers
};

}  // namespace pafeat

#endif  // PAFEAT_RL_TYPES_H_
