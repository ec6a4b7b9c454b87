// Parameterized property suites over the core invariants: environment
// episode algebra and the scan's subset record across feature counts and
// budgets, stored trajectories rebuilding the live scan, E-Tree consistency
// under random trajectory streams, ITS probability-simplex properties, and
// reward-mode equivalences.
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/feat_based.h"
#include "common/rng.h"
#include "core/etree.h"
#include "core/its.h"
#include "ml/masked_dnn.h"
#include "ml/subset_evaluator.h"
#include "rl/episode_driver.h"
#include "rl/fs_env.h"

namespace pafeat {
namespace {

// Shared tiny evaluator so environment sweeps do not retrain classifiers.
class EnvPropertyBase {
 protected:
  explicit EnvPropertyBase(int num_features) : num_features_(num_features) {
    Rng rng(100 + num_features);
    features_ = Matrix::RandomNormal(120, num_features, 1.0f, &rng);
    labels_.resize(120);
    rows_.resize(120);
    for (int r = 0; r < 120; ++r) {
      labels_[r] = features_.At(r, 0) > 0.0f ? 1.0f : 0.0f;
      rows_[r] = r;
    }
    MaskedDnnConfig config;
    config.epochs = 2;
    classifier_ = std::make_unique<MaskedDnnClassifier>(config);
    classifier_->Fit(features_, labels_, rows_, &rng);
    evaluator_ = std::make_unique<SubsetEvaluator>(&features_, labels_, rows_,
                                                   classifier_.get());
    repr_.assign(num_features, 0.1f);
    repr_[0] = 0.9f;
  }

  int num_features_;
  Matrix features_;
  std::vector<float> labels_;
  std::vector<int> rows_;
  std::unique_ptr<MaskedDnnClassifier> classifier_;
  std::unique_ptr<SubsetEvaluator> evaluator_;
  std::vector<float> repr_;
};

class EnvEpisodeSweep
    : public ::testing::TestWithParam<std::tuple<int, double>>,
      protected EnvPropertyBase {
 protected:
  EnvEpisodeSweep() : EnvPropertyBase(std::get<0>(GetParam())) {}
};

TEST_P(EnvEpisodeSweep, EpisodeInvariants) {
  const double mfr = std::get<1>(GetParam());
  FeatureSelectionEnv env(repr_, evaluator_.get(), mfr);
  Rng rng(7);

  for (int episode = 0; episode < 5; ++episode) {
    env.Reset();
    int steps = 0;
    const double initial = env.current_performance();
    double reward_sum = 0.0;
    while (!env.Done()) {
      reward_sum += env.Step(rng.Bernoulli(0.5) ? kActionSelect
                                                : kActionDeselect);
      ++steps;
      ASSERT_LE(steps, num_features_);
    }
    // Invariant 1: episode length bounded by the scan length.
    EXPECT_LE(steps, num_features_);
    // Invariant 2: the budget is never exceeded.
    EXPECT_LE(MaskCount(env.state().mask), env.max_selectable());
    // Invariant 3: delta rewards telescope to the final performance.
    EXPECT_NEAR(initial + reward_sum, env.current_performance(), 1e-9);
    // Invariant 4: the position never runs past the scan.
    EXPECT_LE(env.state().position, num_features_);
  }
}

TEST_P(EnvEpisodeSweep, ObservationDimensionIsStable) {
  const double mfr = std::get<1>(GetParam());
  FeatureSelectionEnv env(repr_, evaluator_.get(), mfr);
  Rng rng(9);
  EXPECT_EQ(static_cast<int>(env.Observation().size()),
            env.observation_dim());
  while (!env.Done()) {
    env.Step(rng.UniformInt(2));
    EXPECT_EQ(static_cast<int>(env.Observation().size()),
              env.observation_dim());
  }
}

// The environment's subset record against the mask it mirrors, at every
// step of random episodes: its count, key and column list must equal
// MaskCount, PackMask and MaskToIndices of the state's mask, Done() must be
// the mask-counting definition, and the performance must carry the fresh
// evaluation's bits. Episodes start from the default state, ITE prefix
// states (ETree::PrefixToState), Go-Explore archive states, arbitrary masks
// (bits past the scan position too) and masks already at the budget; some
// are copied mid-scan and both copies run on. At m = 65 and 130 the key
// spans two and three words.
TEST_P(EnvEpisodeSweep, SubsetRecordMatchesMaskAtEveryStep) {
  const double mfr = std::get<1>(GetParam());
  const int m = num_features_;
  FeatureSelectionEnv env(repr_, evaluator_.get(), mfr);
  const auto expect_record = [&](const FeatureSelectionEnv& e,
                                 const std::string& where) {
    const SubsetRecord& record = e.subset_record();
    const FeatureMask& mask = e.state().mask;
    ASSERT_EQ(static_cast<int>(record.cols.size()), MaskCount(mask)) << where;
    ASSERT_EQ(record.key, PackMask(mask)) << where;
    ASSERT_EQ(record.cols, MaskToIndices(mask)) << where;
    ASSERT_EQ(e.Done(), e.state().position >= m ||
                            MaskCount(mask) >= e.max_selectable())
        << where;
    const double performance = e.current_performance();
    const double fresh = evaluator_->EvaluateUncached(mask);
    ASSERT_EQ(std::memcmp(&performance, &fresh, sizeof(double)), 0)
        << where << ": " << performance << " vs " << fresh;
  };
  Rng rng(41 + m);
  ETree tree(m);
  GoExploreProvider archive(m, /*use_probability=*/1.0);
  const SeenTaskRuntime no_task;
  int custom_starts = 0;
  for (int episode = 0; episode < 20; ++episode) {
    const int kind = episode % 5;
    std::optional<EnvState> start;
    std::vector<int> path;  // decisions from the root, for the tree/archive
    if (kind == 1 && tree.root_visits() > 0) {
      path = tree.SelectPrefix(1.0, m - 1);
      start = tree.PrefixToState(path);
    } else if (kind == 2) {
      if (std::optional<EpisodeStart> s = archive.Propose(0, no_task, &rng)) {
        path = s->prefix;
        start = s->state;
      }
    } else if (kind == 3) {
      start.emplace();
      start->mask.resize(m);
      for (uint8_t& bit : start->mask) bit = rng.Bernoulli(0.3);
      start->position = rng.UniformInt(m);
    } else if (kind == 4) {
      // Already at the budget: Done from the start, no step to take.
      start.emplace();
      start->mask.assign(m, 0);
      for (int c : rng.SampleWithoutReplacement(m, env.max_selectable())) {
        start->mask[c] = 1;
      }
      start->position = rng.UniformInt(m);
    }
    if (start.has_value()) {
      env.ResetTo(*start);
      ++custom_starts;
    } else {
      env.Reset();
    }
    const std::string where = "episode " + std::to_string(episode);
    ASSERT_NO_FATAL_FAILURE(expect_record(env, where + " start"));
    if (kind == 4) {
      ASSERT_TRUE(env.Done()) << where;
    }

    std::optional<FeatureSelectionEnv> copy;
    for (int step = 0; !env.Done(); ++step) {
      const int action = rng.Bernoulli(0.5) ? kActionSelect : kActionDeselect;
      env.Step(action);
      path.push_back(action);
      ASSERT_NO_FATAL_FAILURE(
          expect_record(env, where + " step " + std::to_string(step)));
      if (step == 2 && episode % 2 == 0) copy.emplace(env);
    }
    // The copy runs on from its own record with a denser pattern, so its
    // subsets are new to the cache.
    for (int step = 0; copy.has_value() && !copy->Done(); ++step) {
      copy->Step(rng.Bernoulli(0.7) ? kActionSelect : kActionDeselect);
      ASSERT_NO_FATAL_FAILURE(
          expect_record(*copy, where + " copy step " + std::to_string(step)));
    }
    if (kind <= 2) {
      tree.AddTrajectory(path, env.current_performance());
      archive.OnTrajectory(0, path, env.current_performance());
    }
  }
  EXPECT_GE(custom_starts, 8);
}

INSTANTIATE_TEST_SUITE_P(
    FeatureCountsAndBudgets, EnvEpisodeSweep,
    ::testing::Combine(::testing::Values(4, 9, 16, 33, 65, 130),
                       ::testing::Values(0.2, 0.5, 1.0)));

class ReplayRebuildSweep
    : public ::testing::TestWithParam<std::tuple<int, double>>,
      protected EnvPropertyBase {
 protected:
  ReplayRebuildSweep() : EnvPropertyBase(std::get<0>(GetParam())) {}
};

bool SameState(const EnvState& a, const EnvState& b) {
  return a.position == b.position && a.mask.size() == b.mask.size() &&
         std::memcmp(a.mask.data(), b.mask.data(), a.mask.size()) == 0;
}

// A stored trajectory is its start state and its decisions; every state the
// live scan passed through must come back bit for bit from the record, and
// so must every observation row the learner writes from it (the learner's
// way: the step's state rebuilt into one reused scratch state, then that
// scratch advanced by the step's action to its next state). Episodes start
// from the default state, from ITE prefix states (ETree::PrefixToState), from
// Go-Explore archive states and from arbitrary masks (bits past the scan
// position too), with random decisions drawn by the episode driver.
TEST_P(ReplayRebuildSweep, RebuiltStepsEqualLiveScan) {
  const double mfr = std::get<1>(GetParam());
  const FeatureSelectionEnv env(repr_, evaluator_.get(), mfr);
  const int m = num_features_;
  const int dim = env.observation_dim();
  const EpisodeDriver::RewardShapeFn raw_reward;
  // Row of `rebuilt` against ObservationFor of the live state, bit for bit.
  std::vector<float> row(dim);
  const auto expect_row = [&](const EnvState& rebuilt, const EnvState& live,
                              const std::string& where) {
    EXPECT_TRUE(SameState(rebuilt, live)) << where;
    env.ObservationForInto(rebuilt, row.data());
    const std::vector<float> expected = env.ObservationFor(live);
    EXPECT_EQ(std::memcmp(row.data(), expected.data(), sizeof(float) * dim),
              0)
        << where;
  };
  // Never reset: each step is rebuilt over whatever the previous one left.
  EnvState scratch;
  int starts_with_bits = 0;
  for (const uint64_t seed : {3u, 17u, 101u}) {
    Rng rng(seed * 1000 + m);
    ETree tree(m);
    GoExploreProvider archive(m, /*use_probability=*/1.0);
    const SeenTaskRuntime no_task;
    for (int episode = 0; episode < 24; ++episode) {
      const int kind = episode % 4;
      std::optional<EpisodeStart> start;
      if (kind == 1 && tree.root_visits() > 0) {
        start.emplace();
        start->prefix = tree.SelectPrefix(1.0, m - 1);
        start->state = tree.PrefixToState(start->prefix);
        start->random_policy = rng.Bernoulli(0.5);
      } else if (kind == 2) {
        start = archive.Propose(/*task_slot=*/0, no_task, &rng);
      } else if (kind == 3) {
        start.emplace();
        start->state.mask.resize(m);
        for (uint8_t& bit : start->state.mask) bit = rng.Bernoulli(0.3);
        start->state.position = rng.UniformInt(m);
      }

      // The recorder under test, and a copy of the environment stepped
      // through the same decisions: the live scan.
      EpisodeDriver driver(env, rng.Fork(static_cast<uint64_t>(episode)));
      FeatureSelectionEnv live(env);
      if (start.has_value()) {
        driver.StartFrom(start->state, start->prefix, start->random_policy);
        live.ResetTo(start->state);
        if (live.Done()) live.Reset();  // StartFrom's fallback
      } else {
        driver.StartDefault();
      }
      std::vector<EnvState> states = {live.state()};
      std::vector<int> actions;
      while (!driver.done()) {
        if (driver.PlanStep(/*epsilon=*/1.0f)) {
          driver.SetPlannedAction(rng.UniformInt(kNumActions));
        }
        driver.ApplyAction(raw_reward);
        actions.push_back(driver.actions().back());
        live.Step(actions.back());
        states.push_back(live.state());
      }
      const std::vector<int> path = driver.actions();
      const Trajectory trajectory = driver.TakeTrajectory();
      tree.AddTrajectory(path, trajectory.episode_return);
      archive.OnTrajectory(0, path, trajectory.episode_return);

      const int steps = trajectory.num_steps();
      if (MaskCount(trajectory.start.mask) > 0) ++starts_with_bits;
      ASSERT_EQ(steps + 1, static_cast<int>(states.size()));
      ASSERT_TRUE(SameState(trajectory.start, states.front()));
      ASSERT_EQ(trajectory.FinalMask().size(), states.back().mask.size());
      EXPECT_EQ(std::memcmp(trajectory.FinalMask().data(),
                            states.back().mask.data(), m),
                0);
      for (int t = 0; t <= steps; ++t) {
        const std::string where = "seed " + std::to_string(seed) +
                                  " episode " + std::to_string(episode) +
                                  " state before step " + std::to_string(t);
        EXPECT_TRUE(SameState(trajectory.StateBefore(t), states[t])) << where;
        if (t == steps) break;
        EXPECT_EQ(trajectory.steps[t].action, actions[t]) << where;
        EXPECT_EQ(trajectory.steps[t].done, t + 1 == steps) << where;
        trajectory.StateBeforeInto(t, &scratch);
        expect_row(scratch, states[t], where);
        AdvanceState(trajectory.steps[t].action, &scratch);
        expect_row(scratch, states[t + 1], where + ", next state");
      }
    }
  }
  // With room for more than one selected feature, some episodes must start
  // from a nonempty mask, or the start mask's part of the rule is untested.
  if (env.max_selectable() > 1) {
    EXPECT_GT(starts_with_bits, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FeatureCountsAndBudgets, ReplayRebuildSweep,
    ::testing::Combine(::testing::Values(4, 9, 16, 33),
                       ::testing::Values(0.2, 0.5, 1.0)));

class ETreePropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(ETreePropertySweep, VisitCountsAreConsistent) {
  const int m = GetParam();
  ETree tree(m);
  Rng rng(m * 31);
  int added = 0;
  for (int i = 0; i < 50; ++i) {
    const int length = 1 + rng.UniformInt(m);
    std::vector<int> path(length);
    for (int& a : path) a = rng.UniformInt(2);
    tree.AddTrajectory(path, rng.Uniform());
    ++added;
    // Root visits equal the number of trajectories.
    ASSERT_EQ(tree.root_visits(), added);
    // Children visits never exceed the parent's.
    ASSERT_LE(tree.NodeVisits({0}) + tree.NodeVisits({1}), added);
  }
  // Any UCT-selected prefix maps to a state whose mask is consistent.
  for (double c : {0.1, 2.0, 50.0}) {
    const std::vector<int> prefix = tree.SelectPrefix(c, m - 1);
    ASSERT_LE(static_cast<int>(prefix.size()), m - 1);
    const EnvState state = tree.PrefixToState(prefix);
    int expected_count = 0;
    for (int a : prefix) expected_count += a;
    EXPECT_EQ(MaskCount(state.mask), expected_count);
    EXPECT_GT(tree.NodeVisits(prefix), 0);  // only visited states returned
  }
}

INSTANTIATE_TEST_SUITE_P(TreeWidths, ETreePropertySweep,
                         ::testing::Values(2, 5, 12, 40));

class ItsSimplexSweep : public ::testing::TestWithParam<int> {};

TEST_P(ItsSimplexSweep, ProbabilitiesFormBoundedSimplex) {
  const int n = GetParam();
  Rng rng(n * 101);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TaskProgress> progress(n);
    for (TaskProgress& p : progress) {
      p.distance_ratio = rng.Uniform(-0.2, 1.0);
      p.uncertainty = rng.Uniform(0.5, 1.0);
    }
    const std::vector<double> probs = ScheduleProbabilities(progress);
    ASSERT_EQ(static_cast<int>(probs.size()), n);
    double total = 0.0;
    for (double p : probs) {
      // Balanced-learning floor: nobody starves.
      EXPECT_GE(p, 0.5 / n - 1e-12);
      EXPECT_LE(p, 1.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(TaskCounts, ItsSimplexSweep,
                         ::testing::Values(2, 4, 7, 12, 17));

class RewardModeSweep : public ::testing::TestWithParam<int>,
                        protected EnvPropertyBase {
 protected:
  RewardModeSweep() : EnvPropertyBase(GetParam()) {}
};

TEST_P(RewardModeSweep, DeltaIsDiscreteDerivativeOfAbsolute) {
  FeatureSelectionEnv delta(repr_, evaluator_.get(), 1.0, RewardMode::kDelta);
  FeatureSelectionEnv absolute(repr_, evaluator_.get(), 1.0,
                               RewardMode::kAbsolute);
  Rng rng(5);
  double previous_absolute = delta.current_performance();
  while (!delta.Done()) {
    const int action = rng.UniformInt(2);
    const double d = delta.Step(action);
    const double a = absolute.Step(action);
    EXPECT_NEAR(d, a - previous_absolute, 1e-9);
    previous_absolute = a;
  }
  EXPECT_TRUE(absolute.Done());
}

INSTANTIATE_TEST_SUITE_P(FeatureCounts, RewardModeSweep,
                         ::testing::Values(4, 10, 21));

}  // namespace
}  // namespace pafeat
