#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/masked_dnn.h"
#include "ml/subset_evaluator.h"
#include "rl/dqn_agent.h"
#include "rl/fs_env.h"
#include "rl/replay_buffer.h"

namespace pafeat {
namespace {

// A full scan of `length` features, one step per feature, selecting every
// other one.
Trajectory MakeTrajectory(int length, float reward) {
  Trajectory trajectory;
  trajectory.start.mask.assign(length, 0);
  trajectory.start.position = 0;
  for (int t = 0; t < length; ++t) {
    StoredStep step;
    step.action = static_cast<uint8_t>(t % 2);
    step.reward = reward;
    step.done = (t + 1 == length);
    trajectory.steps.push_back(step);
  }
  trajectory.episode_return = reward;
  return trajectory;
}

TEST(ReplayBufferTest, StoresAndCounts) {
  ReplayBuffer buffer(100);
  EXPECT_TRUE(buffer.empty());
  buffer.AddTrajectory(MakeTrajectory(5, 0.1f));
  buffer.AddTrajectory(MakeTrajectory(3, 0.2f));
  EXPECT_EQ(buffer.num_transitions(), 8);
  EXPECT_EQ(buffer.num_trajectories(), 2);
}

TEST(ReplayBufferTest, EvictsOldestWhenOverCapacity) {
  ReplayBuffer buffer(10);
  buffer.AddTrajectory(MakeTrajectory(6, 0.1f));
  buffer.AddTrajectory(MakeTrajectory(6, 0.2f));
  // 12 > 10 -> the first trajectory is evicted.
  EXPECT_EQ(buffer.num_trajectories(), 1);
  EXPECT_EQ(buffer.num_transitions(), 6);
  EXPECT_FLOAT_EQ(buffer.RecentTrajectories(1)[0]->episode_return, 0.2f);
}

TEST(ReplayBufferTest, KeepsAtLeastOneTrajectory) {
  ReplayBuffer buffer(2);
  buffer.AddTrajectory(MakeTrajectory(8, 0.5f));
  EXPECT_EQ(buffer.num_trajectories(), 1);  // oversize but retained
  EXPECT_EQ(buffer.num_transitions(), 8);
}

TEST(ReplayBufferTest, CapacityBoundaryEviction) {
  // Exactly at capacity nothing is evicted; the very next transition over
  // the boundary evicts whole oldest trajectories until back under (the
  // borrow contract matters precisely because this can happen on any add).
  ReplayBuffer buffer(10);
  buffer.AddTrajectory(MakeTrajectory(4, 0.1f));
  buffer.AddTrajectory(MakeTrajectory(6, 0.2f));
  EXPECT_EQ(buffer.num_transitions(), 10);  // == capacity: no eviction
  EXPECT_EQ(buffer.num_trajectories(), 2);

  buffer.AddTrajectory(MakeTrajectory(1, 0.3f));
  // 11 > 10 evicts the 4-step trajectory (whole trajectories only).
  EXPECT_EQ(buffer.num_transitions(), 7);
  EXPECT_EQ(buffer.num_trajectories(), 2);
  const auto recent = buffer.RecentTrajectories(2);
  EXPECT_FLOAT_EQ(recent[0]->episode_return, 0.2f);
  EXPECT_FLOAT_EQ(recent[1]->episode_return, 0.3f);

  // Eviction stops once under capacity even if several small trajectories
  // could still be dropped.
  buffer.AddTrajectory(MakeTrajectory(6, 0.4f));
  EXPECT_EQ(buffer.num_transitions(), 7);  // 13 -> evict 6-step -> 7
  EXPECT_EQ(buffer.num_trajectories(), 2);
  EXPECT_FLOAT_EQ(buffer.RecentTrajectories(10)[0]->episode_return, 0.3f);
}

TEST(ReplayBufferTest, ReadGuardRegistersAndReleasesBorrow) {
  // The guard is bookkeeping for the no-add-while-borrowed contract: adds
  // are legal again as soon as every guard has been destroyed (the
  // violation itself is a PF_DCHECK, exercised by the checked build).
  ReplayBuffer buffer(100);
  buffer.AddTrajectory(MakeTrajectory(4, 0.1f));
  {
    ReplayBuffer::ReadGuard outer(buffer);
    ReplayBuffer::ReadGuard inner(buffer);  // borrows nest
    Rng rng(5);
    const auto sampled = buffer.SampleTransitions(8, &rng);
    EXPECT_EQ(sampled.size(), 8u);
    ReplayBuffer::ReadGuard moved(std::move(inner));  // transfer, not double
  }
  buffer.AddTrajectory(MakeTrajectory(4, 0.2f));
  EXPECT_EQ(buffer.num_trajectories(), 2);
}

TEST(ReplayBufferTest, SampleReturnsStoredTransitions) {
  ReplayBuffer buffer(100);
  buffer.AddTrajectory(MakeTrajectory(4, 0.7f));
  Rng rng(3);
  const auto sampled = buffer.SampleTransitions(32, &rng);
  ASSERT_EQ(sampled.size(), 32u);
  for (const StepRef& ref : sampled) {
    EXPECT_FLOAT_EQ(ref.trajectory->steps[ref.step].reward, 0.7f);
    const int position = ref.trajectory->StateBefore(ref.step).position;
    EXPECT_GE(position, 0);
    EXPECT_LT(position, 4);
  }
}

TEST(ReplayBufferTest, RecentTrajectoriesNewestLast) {
  ReplayBuffer buffer(100);
  buffer.AddTrajectory(MakeTrajectory(2, 0.1f));
  buffer.AddTrajectory(MakeTrajectory(2, 0.2f));
  buffer.AddTrajectory(MakeTrajectory(2, 0.3f));
  const auto recent = buffer.RecentTrajectories(2);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_FLOAT_EQ(recent[0]->episode_return, 0.2f);
  EXPECT_FLOAT_EQ(recent[1]->episode_return, 0.3f);
  EXPECT_EQ(buffer.RecentTrajectories(10).size(), 3u);
}

TEST(TrajectoryTest, FinalMaskIsLastState) {
  // Steps 1 and 3 select: the state after the last step has both bits.
  const Trajectory trajectory = MakeTrajectory(4, 0.0f);
  EXPECT_EQ(trajectory.FinalMask(), (FeatureMask{0, 1, 0, 1}));
  EXPECT_EQ(MaskCount(trajectory.FinalMask()), 2);
}

// Environment fixture with a real (small) classifier-backed evaluator.
class FsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    features_ = Matrix::RandomNormal(200, 6, 1.0f, &rng);
    labels_.resize(200);
    rows_.resize(200);
    for (int r = 0; r < 200; ++r) {
      labels_[r] = features_.At(r, 1) > 0.0f ? 1.0f : 0.0f;
      rows_[r] = r;
    }
    MaskedDnnConfig config;
    config.epochs = 8;
    classifier_ = std::make_unique<MaskedDnnClassifier>(config);
    classifier_->Fit(features_, labels_, rows_, &rng);
    evaluator_ = std::make_unique<SubsetEvaluator>(&features_, labels_, rows_,
                                                   classifier_.get());
    repr_ = {0.05f, 0.8f, 0.02f, 0.03f, 0.01f, 0.04f};
  }

  Matrix features_;
  std::vector<float> labels_;
  std::vector<int> rows_;
  std::unique_ptr<MaskedDnnClassifier> classifier_;
  std::unique_ptr<SubsetEvaluator> evaluator_;
  std::vector<float> repr_;
};

TEST_F(FsEnvTest, ObservationLayout) {
  FeatureSelectionEnv env(repr_, evaluator_.get(), 0.5);
  EXPECT_EQ(env.num_features(), 6);
  EXPECT_EQ(env.observation_dim(), 15);  // 2 * 6 + 3
  const std::vector<float> obs = env.Observation();
  ASSERT_EQ(obs.size(), 15u);
  EXPECT_FLOAT_EQ(obs[1], 0.8f);        // repr
  EXPECT_FLOAT_EQ(obs[6], 0.0f);        // empty mask
  EXPECT_FLOAT_EQ(obs[12], 0.0f);       // position 0
  EXPECT_FLOAT_EQ(obs[13], repr_[0]);   // repr at scan position
  EXPECT_FLOAT_EQ(obs[14], 0.0f);       // selected fraction
}

TEST_F(FsEnvTest, StepAdvancesAndSelects) {
  FeatureSelectionEnv env(repr_, evaluator_.get(), 1.0);
  env.Step(kActionSelect);
  EXPECT_EQ(env.state().position, 1);
  EXPECT_EQ(env.state().mask[0], 1);
  env.Step(kActionDeselect);
  EXPECT_EQ(env.state().position, 2);
  EXPECT_EQ(env.state().mask[1], 0);
  const std::vector<float> obs = env.Observation();
  EXPECT_FLOAT_EQ(obs[6], 1.0f);                      // mask[0]
  EXPECT_FLOAT_EQ(obs[12], 2.0f / 6.0f);              // position
  EXPECT_FLOAT_EQ(obs[14], 1.0f / 6.0f);              // selected fraction
}

TEST_F(FsEnvTest, EpisodeEndsAfterFullScan) {
  FeatureSelectionEnv env(repr_, evaluator_.get(), 1.0);
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(env.Done());
    env.Step(kActionDeselect);
  }
  EXPECT_TRUE(env.Done());
}

TEST_F(FsEnvTest, MaxFeatureRatioCapsSelection) {
  // mfr = 0.5 over 6 features -> max 3 selected.
  FeatureSelectionEnv env(repr_, evaluator_.get(), 0.5);
  EXPECT_EQ(env.max_selectable(), 3);
  env.Step(kActionSelect);
  env.Step(kActionSelect);
  EXPECT_FALSE(env.Done());
  env.Step(kActionSelect);
  EXPECT_TRUE(env.Done());
  EXPECT_EQ(MaskCount(env.state().mask), 3);
}

TEST_F(FsEnvTest, DeltaRewardsTelescopeToFinalPerformance) {
  FeatureSelectionEnv env(repr_, evaluator_.get(), 1.0, RewardMode::kDelta);
  const double base = env.current_performance();
  double total = 0.0;
  Rng rng(5);
  while (!env.Done()) {
    total += env.Step(rng.Bernoulli(0.5) ? kActionSelect : kActionDeselect);
  }
  EXPECT_NEAR(base + total, env.current_performance(), 1e-9);
  EXPECT_NEAR(env.current_performance(),
              evaluator_->Reward(env.state().mask), 1e-12);
}

TEST_F(FsEnvTest, AbsoluteRewardsEqualSubsetPerformance) {
  FeatureSelectionEnv env(repr_, evaluator_.get(), 1.0, RewardMode::kAbsolute);
  const double r = env.Step(kActionSelect);
  EXPECT_NEAR(r, evaluator_->Reward(env.state().mask), 1e-12);
}

TEST_F(FsEnvTest, DeselectHasZeroDeltaReward) {
  FeatureSelectionEnv env(repr_, evaluator_.get(), 1.0, RewardMode::kDelta);
  EXPECT_DOUBLE_EQ(env.Step(kActionDeselect), 0.0);
}

TEST_F(FsEnvTest, ResetToRestoresState) {
  FeatureSelectionEnv env(repr_, evaluator_.get(), 1.0);
  EnvState state;
  state.mask = {1, 0, 1, 0, 0, 0};
  state.position = 4;
  env.ResetTo(state);
  EXPECT_EQ(env.state().position, 4);
  EXPECT_EQ(MaskCount(env.state().mask), 2);
  EXPECT_NEAR(env.current_performance(), evaluator_->Reward(state.mask),
              1e-12);
  env.Reset();
  EXPECT_EQ(env.state().position, 0);
  EXPECT_EQ(MaskCount(env.state().mask), 0);
}

TEST_F(FsEnvTest, ObservationForArbitraryState) {
  FeatureSelectionEnv env(repr_, evaluator_.get(), 1.0);
  EnvState state;
  state.mask = {0, 1, 0, 0, 0, 1};
  state.position = 6;
  const std::vector<float> obs = env.ObservationFor(state);
  EXPECT_FLOAT_EQ(obs[7], 1.0f);
  EXPECT_FLOAT_EQ(obs[11], 1.0f);
  EXPECT_FLOAT_EQ(obs[12], 1.0f);   // position m/m
  EXPECT_FLOAT_EQ(obs[13], 0.0f);   // past-the-end scan repr
  EXPECT_FLOAT_EQ(obs[14], 2.0f / 6.0f);
}

DqnConfig SmallDqnConfig(int obs_dim) {
  DqnConfig config;
  config.net.input_dim = obs_dim;
  config.net.trunk_hidden = {16};
  config.net.num_actions = 2;
  config.learning_rate = 3e-3f;
  config.target_sync_every = 10;
  config.epsilon_decay_steps = 100;
  return config;
}

// One observation through the batched plane as a batch of one.
std::vector<float> QValuesOf(const DqnAgent& agent,
                             const std::vector<float>& observation) {
  std::vector<float> q(agent.config().net.num_actions);
  agent.QValuesBatchInto(1, observation.data(), q.data());
  return q;
}

int GreedyAction(const DqnAgent& agent,
                 const std::vector<float>& observation) {
  int action = -1;
  agent.ActBatch(1, observation.data(), &action);
  return action;
}

TEST(DqnAgentTest, EpsilonDecaysLinearly) {
  Rng rng(31);
  DqnAgent agent(SmallDqnConfig(4), &rng);
  EXPECT_FLOAT_EQ(agent.CurrentEpsilon(), 1.0f);
  // After decay_steps training steps epsilon bottoms out.
  std::vector<BatchItem> batch(4);
  for (auto& item : batch) {
    item.observation.assign(4, 0.0f);
    item.next_observation.assign(4, 0.0f);
    item.done = true;
  }
  for (int i = 0; i < 150; ++i) agent.TrainBatch(batch);
  EXPECT_FLOAT_EQ(agent.CurrentEpsilon(), 0.05f);
}

TEST(DqnAgentTest, GreedyActionIsArgmaxQ) {
  Rng rng(33);
  DqnAgent agent(SmallDqnConfig(4), &rng);
  const std::vector<float> obs = {0.5f, -0.3f, 0.1f, 0.9f};
  const std::vector<float> q = QValuesOf(agent, obs);
  const int greedy = GreedyAction(agent, obs);
  EXPECT_EQ(greedy, q[1] > q[0] ? 1 : 0);
}

TEST(DqnAgentTest, LearnsActionValuesOnBandit) {
  // One-state bandit: action 1 always pays 1, action 0 pays 0.
  Rng rng(35);
  DqnConfig config = SmallDqnConfig(3);
  config.gamma = 0.0f;
  DqnAgent agent(config, &rng);
  std::vector<BatchItem> batch;
  for (int i = 0; i < 16; ++i) {
    BatchItem item;
    item.observation = {1.0f, 0.0f, 0.0f};
    item.next_observation = {1.0f, 0.0f, 0.0f};
    item.action = i % 2;
    item.reward = item.action == 1 ? 1.0f : 0.0f;
    item.done = true;
    batch.push_back(item);
  }
  for (int step = 0; step < 300; ++step) agent.TrainBatch(batch);
  const std::vector<float> q = QValuesOf(agent, {1.0f, 0.0f, 0.0f});
  EXPECT_NEAR(q[1], 1.0f, 0.1f);
  EXPECT_NEAR(q[0], 0.0f, 0.1f);
  EXPECT_EQ(GreedyAction(agent, {1.0f, 0.0f, 0.0f}), 1);
}

TEST(DqnAgentTest, BootstrapsThroughNonTerminalStates) {
  // Two-step chain: s0 -a1-> s1 (r 0), s1 -a1-> terminal (r 1).
  // With gamma 0.5, Q(s0, 1) should approach 0.5.
  Rng rng(37);
  DqnConfig config = SmallDqnConfig(2);
  config.gamma = 0.5f;
  config.target_sync_every = 5;
  DqnAgent agent(config, &rng);
  std::vector<BatchItem> batch;
  for (int i = 0; i < 8; ++i) {
    BatchItem first;
    first.observation = {1.0f, 0.0f};
    first.next_observation = {0.0f, 1.0f};
    first.action = 1;
    first.reward = 0.0f;
    first.done = false;
    BatchItem second;
    second.observation = {0.0f, 1.0f};
    second.next_observation = {0.0f, 0.0f};
    second.action = 1;
    second.reward = 1.0f;
    second.done = true;
    // Also teach that action 0 pays nothing anywhere.
    BatchItem null_a = first;
    null_a.action = 0;
    null_a.next_observation = {0.0f, 0.0f};
    null_a.done = true;
    BatchItem null_b = second;
    null_b.action = 0;
    null_b.reward = 0.0f;
    batch.push_back(first);
    batch.push_back(second);
    batch.push_back(null_a);
    batch.push_back(null_b);
  }
  for (int step = 0; step < 500; ++step) agent.TrainBatch(batch);
  EXPECT_NEAR(QValuesOf(agent, {0.0f, 1.0f})[1], 1.0f, 0.15f);
  EXPECT_NEAR(QValuesOf(agent, {1.0f, 0.0f})[1], 0.5f, 0.15f);
}

TEST(DqnAgentTest, TrainReducesLoss) {
  Rng rng(39);
  DqnAgent agent(SmallDqnConfig(4), &rng);
  std::vector<BatchItem> batch(8);
  Rng data_rng(40);
  for (auto& item : batch) {
    item.observation.resize(4);
    for (float& v : item.observation) {
      v = static_cast<float>(data_rng.Normal());
    }
    item.next_observation = item.observation;
    item.action = data_rng.UniformInt(2);
    item.reward = static_cast<float>(data_rng.Uniform());
    item.done = true;
  }
  const double first = agent.TrainBatch(batch);
  double last = first;
  for (int i = 0; i < 200; ++i) last = agent.TrainBatch(batch);
  EXPECT_LT(last, first);
}

TEST(DqnAgentTest, PopArtStatsTrackTargets) {
  Rng rng(41);
  DqnConfig config = SmallDqnConfig(2);
  config.use_popart = true;
  config.gamma = 0.0f;
  DqnAgent agent(config, &rng);
  // Identity stats before any training.
  auto [mean0, stddev0] = agent.PopArtStats(0);
  EXPECT_DOUBLE_EQ(mean0, 0.0);
  EXPECT_DOUBLE_EQ(stddev0, 1.0);

  std::vector<BatchItem> batch(8);
  for (auto& item : batch) {
    item.observation = {1.0f, 0.0f};
    item.next_observation = {1.0f, 0.0f};
    item.action = 0;
    item.reward = 10.0f;  // large-magnitude task
    item.done = true;
    item.task_id = 0;
  }
  for (int i = 0; i < 100; ++i) agent.TrainBatch(batch);
  auto [mean, stddev] = agent.PopArtStats(0);
  EXPECT_NEAR(mean, 10.0, 1.0);
  EXPECT_GT(stddev, 0.0);
  // Task 1 was never seen: identity stats.
  auto [mean1, stddev1] = agent.PopArtStats(1);
  EXPECT_DOUBLE_EQ(mean1, 0.0);
  EXPECT_DOUBLE_EQ(stddev1, 1.0);
}

}  // namespace
}  // namespace pafeat
