#include "core/feat.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/defaults.h"
#include "core/ite.h"
#include "core/pafeat.h"
#include "data/synthetic.h"

namespace pafeat {
namespace {

SyntheticDataset SmallDataset(uint64_t seed = 17) {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_features = 10;
  spec.num_seen_tasks = 3;
  spec.num_unseen_tasks = 2;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

FeatConfig SmallFeatConfig() {
  FeatConfig config = DefaultFeatOptions(50, 23).feat;
  config.envs_per_iteration = 3;
  config.max_feature_ratio = 0.5;
  return config;
}

class FeatTest : public ::testing::Test {
 protected:
  FeatTest()
      : dataset_(SmallDataset()),
        problem_(dataset_.table, DefaultProblemConfig(true), 19) {}

  SyntheticDataset dataset_;
  FsProblem problem_;
};

TEST_F(FeatTest, IterationFillsBuffersAndTrains) {
  Feat feat(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig());
  EXPECT_EQ(feat.num_tasks(), 3);
  const IterationStats stats = feat.RunIteration();
  EXPECT_EQ(stats.episodes, 3);
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_EQ(stats.task_probabilities.size(), 3u);
  int transitions = 0;
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    transitions += feat.task_runtime(slot).buffer->num_transitions();
  }
  EXPECT_GT(transitions, 0);
  EXPECT_GT(feat.agent().train_steps(), 0);
}

TEST_F(FeatTest, DefaultSchedulerIsUniform) {
  Feat feat(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig());
  const IterationStats stats = feat.RunIteration();
  for (double p : stats.task_probabilities) EXPECT_NEAR(p, 1.0 / 3, 1e-12);
}

TEST_F(FeatTest, ItsSchedulerProducesValidDistribution) {
  Feat feat(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig());
  feat.SetScheduler(std::make_unique<ItsScheduler>(4));
  feat.Train(5);
  const IterationStats stats = feat.RunIteration();
  double total = 0.0;
  for (double p : stats.task_probabilities) {
    EXPECT_GT(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(FeatTest, EpisodeReturnsAreSubsetPerformance) {
  Feat feat(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig());
  feat.Train(5);
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    const SeenTaskRuntime& task = feat.task_runtime(slot);
    for (const Trajectory* trajectory : task.buffer->RecentTrajectories(8)) {
      EXPECT_GE(trajectory->episode_return, 0.0);
      EXPECT_LE(trajectory->episode_return, 1.0);
      // The recorded return is the true performance of the final subset.
      EXPECT_NEAR(trajectory->episode_return,
                  task.context->evaluator->Reward(trajectory->FinalMask()),
                  1e-9);
    }
  }
}

TEST_F(FeatTest, SelectionRespectsMaxFeatureRatio) {
  FeatConfig config = SmallFeatConfig();
  config.max_feature_ratio = 0.3;  // 3 of 10
  Feat feat(&problem_, dataset_.SeenTaskIndices(), config);
  feat.Train(10);
  for (int unseen : dataset_.UnseenTaskIndices()) {
    double exec = 0.0;
    const FeatureMask mask = feat.SelectForTask(unseen, &exec);
    EXPECT_LE(MaskCount(mask), 3);
    EXPECT_GT(exec, 0.0);
  }
}

TEST_F(FeatTest, EpisodeMasksNeverExceedCap) {
  FeatConfig config = SmallFeatConfig();
  config.max_feature_ratio = 0.4;
  Feat feat(&problem_, dataset_.SeenTaskIndices(), config);
  feat.Train(10);
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    for (const Trajectory* trajectory :
         feat.task_runtime(slot).buffer->RecentTrajectories(100)) {
      EXPECT_LE(MaskCount(trajectory->FinalMask()), 4);
    }
  }
}

TEST_F(FeatTest, RewardShaperOnlyAffectsStoredRewards) {
  // A shaper that zeroes all rewards must not change episode returns.
  class ZeroShaper : public RewardShaper {
   public:
    double BeginEpisode(int, Rng*) override { return 0.0; }
    double Shape(double, int, double, Rng*) override { return 0.0; }
  };
  Feat feat(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig());
  feat.SetRewardShaper(std::make_unique<ZeroShaper>());
  feat.Train(3);
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    for (const Trajectory* trajectory :
         feat.task_runtime(slot).buffer->RecentTrajectories(10)) {
      for (const StoredStep& t : trajectory->steps) {
        EXPECT_FLOAT_EQ(t.reward, 0.0f);
      }
      EXPECT_GT(trajectory->episode_return, 0.0);  // true performance intact
    }
  }
}

TEST_F(FeatTest, InitialStateProviderReceivesTrajectories) {
  class CountingProvider : public InitialStateProvider {
   public:
    std::optional<EpisodeStart> Propose(int, const SeenTaskRuntime&,
                                        Rng*) override {
      ++proposals;
      return std::nullopt;
    }
    void OnTrajectory(int, const std::vector<int>& actions,
                      double episode_return) override {
      ++trajectories;
      EXPECT_FALSE(actions.empty());
      EXPECT_GE(episode_return, 0.0);
    }
    int proposals = 0;
    int trajectories = 0;
  };
  Feat feat(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig());
  auto provider = std::make_unique<CountingProvider>();
  CountingProvider* raw = provider.get();
  feat.SetInitialStateProvider(std::move(provider));
  feat.Train(4);
  EXPECT_EQ(raw->proposals, 12);     // 4 iterations x 3 envs
  EXPECT_EQ(raw->trajectories, 12);
}

TEST_F(FeatTest, CustomizedInitialStatesAreUsed) {
  // A provider that pins episodes to a fixed mid-scan state.
  class PinnedProvider : public InitialStateProvider {
   public:
    explicit PinnedProvider(int m) : m_(m) {}
    std::optional<EpisodeStart> Propose(int, const SeenTaskRuntime&,
                                        Rng*) override {
      EpisodeStart start;
      start.state.mask.assign(m_, 0);
      start.state.mask[0] = 1;
      start.state.position = 5;
      start.prefix = {1, 0, 0, 0, 0};
      return start;
    }
    void OnTrajectory(int, const std::vector<int>& actions, double) override {
      // The recorded decision path must contain the prefix.
      ASSERT_GE(actions.size(), 5u);
      EXPECT_EQ(actions[0], 1);
      EXPECT_EQ(actions[1], 0);
    }
    int m_;
  };
  Feat feat(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig());
  feat.SetInitialStateProvider(
      std::make_unique<PinnedProvider>(problem_.num_features()));
  feat.Train(3);
  // Episodes start at position 5 -> at most 5 transitions each.
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    for (const Trajectory* trajectory :
         feat.task_runtime(slot).buffer->RecentTrajectories(10)) {
      EXPECT_LE(trajectory->num_steps(), 5);
      EXPECT_EQ(trajectory->StateBefore(0).position, 5);
    }
  }
}

TEST_F(FeatTest, FocusTaskDirectsAllEpisodes) {
  Feat feat(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig());
  feat.SetFocusTask(1);
  feat.Train(4);
  EXPECT_EQ(feat.task_runtime(0).buffer->num_trajectories(), 0);
  EXPECT_GT(feat.task_runtime(1).buffer->num_trajectories(), 0);
  EXPECT_EQ(feat.task_runtime(2).buffer->num_trajectories(), 0);
}

TEST_F(FeatTest, AddTaskExtendsRuntime) {
  Feat feat(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig());
  const int slot = feat.AddTask(dataset_.UnseenTaskIndices()[0]);
  EXPECT_EQ(slot, 3);
  EXPECT_EQ(feat.num_tasks(), 4);
  EXPECT_EQ(feat.task_runtime(slot).label_index,
            dataset_.UnseenTaskIndices()[0]);
}

TEST_F(FeatTest, ParallelCollectionMatchesSequential) {
  // The buffer-filling phase plans episodes sequentially and commits them in
  // order, so the learned policy must be bit-identical at any thread count.
  FeatConfig sequential_config = SmallFeatConfig();
  sequential_config.num_threads = 1;
  FeatConfig parallel_config = SmallFeatConfig();
  parallel_config.num_threads = 4;

  Feat sequential(&problem_, dataset_.SeenTaskIndices(), sequential_config);
  Feat parallel(&problem_, dataset_.SeenTaskIndices(), parallel_config);
  sequential.Train(12);
  parallel.Train(12);

  const std::vector<float> seq_params =
      sequential.agent().online_net().SerializeParams();
  const std::vector<float> par_params =
      parallel.agent().online_net().SerializeParams();
  ASSERT_EQ(seq_params.size(), par_params.size());
  for (size_t i = 0; i < seq_params.size(); ++i) {
    ASSERT_FLOAT_EQ(seq_params[i], par_params[i]) << "param " << i;
  }
  for (int slot = 0; slot < sequential.num_tasks(); ++slot) {
    EXPECT_EQ(sequential.task_runtime(slot).buffer->num_transitions(),
              parallel.task_runtime(slot).buffer->num_transitions());
  }
}

TEST_F(FeatTest, TrainBitIdenticalAcrossThreadCounts) {
  // The thread-pool determinism contract, end to end: for a fixed seed,
  // Feat::Train at num_threads 1 and 8 must produce bit-identical per-
  // iteration losses, network parameters, and selected masks (episodes are
  // planned on the iterating thread, executed on the pool, committed in
  // plan order; an 8-way config also exercises more executors than the
  // 3 episodes per iteration).
  FeatConfig serial_config = SmallFeatConfig();
  serial_config.num_threads = 1;
  FeatConfig pooled_config = SmallFeatConfig();
  pooled_config.num_threads = 8;

  Feat serial(&problem_, dataset_.SeenTaskIndices(), serial_config);
  Feat pooled(&problem_, dataset_.SeenTaskIndices(), pooled_config);
  for (int iteration = 0; iteration < 10; ++iteration) {
    const IterationStats serial_stats = serial.RunIteration();
    const IterationStats pooled_stats = pooled.RunIteration();
    ASSERT_EQ(serial_stats.mean_loss, pooled_stats.mean_loss)
        << "iteration " << iteration;
    ASSERT_EQ(serial_stats.episodes, pooled_stats.episodes);
  }
  EXPECT_EQ(serial.agent().online_net().SerializeParams(),
            pooled.agent().online_net().SerializeParams());
  for (int unseen : dataset_.UnseenTaskIndices()) {
    const std::vector<float> repr =
        problem_.ComputeTaskRepresentation(unseen);
    EXPECT_EQ(serial.SelectForRepresentation(repr),
              pooled.SelectForRepresentation(repr));
    // Probe the online networks directly: the per-step Q-values behind those
    // greedy selections must be bit-identical, not merely argmax-equal.
    std::vector<float> observation(2 * repr.size() + 3, 0.0f);
    std::copy(repr.begin(), repr.end(), observation.begin());
    std::vector<float> serial_q(kNumActions);
    std::vector<float> pooled_q(kNumActions);
    serial.agent().QValuesBatchInto(1, observation.data(), serial_q.data());
    pooled.agent().QValuesBatchInto(1, observation.data(), pooled_q.data());
    EXPECT_EQ(serial_q, pooled_q);
  }
}

TEST_F(FeatTest, IterationStatsReportCacheTrafficDeltas) {
  Feat feat(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig());
  const IterationStats first = feat.RunIteration();
  // A fresh run steps environments through never-seen subsets: there must be
  // traffic, and some of it misses.
  EXPECT_GT(first.cache_misses, 0);
  EXPECT_GE(first.cache_hits, 0);

  long long total_hits = first.cache_hits;
  long long total_misses = first.cache_misses;
  for (int i = 0; i < 5; ++i) {
    const IterationStats stats = feat.RunIteration();
    EXPECT_GE(stats.cache_hits, 0);
    EXPECT_GE(stats.cache_misses, 0);
    total_hits += stats.cache_hits;
    total_misses += stats.cache_misses;
  }
  // The per-iteration deltas reconcile with the evaluators' running totals
  // (minus the construction-time traffic folded into the baseline).
  long long evaluator_hits = 0;
  long long evaluator_misses = 0;
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    const TaskContext* context = feat.task_runtime(slot).context;
    evaluator_hits += context->evaluator->cache_hits();
    evaluator_misses += context->evaluator->cache_misses();
  }
  EXPECT_LE(total_hits, evaluator_hits);
  EXPECT_LE(total_misses, evaluator_misses);
  EXPECT_GT(total_hits, 0);
}

TEST_F(FeatTest, TrainAggregatesIterationStats) {
  // Train's statistics must reconcile with the per-iteration stream it
  // folds (episodes, losses, cache traffic).
  Feat feat(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig());
  const TrainingStats totals = feat.Train(6);
  EXPECT_EQ(totals.iterations, 6);
  EXPECT_EQ(totals.episodes, 18);  // 6 iterations x 3 envs
  EXPECT_GT(totals.total_seconds, 0.0);
  EXPECT_NEAR(totals.mean_iteration_seconds, totals.total_seconds / 6, 1e-12);
  EXPECT_GT(totals.mean_loss, 0.0);
  EXPECT_GT(totals.cache_misses, 0);
  EXPECT_GE(totals.cache_hits, 0);
  const double rate = totals.CacheHitRate();
  EXPECT_GE(rate, 0.0);
  EXPECT_LT(rate, 1.0);  // misses above, so never exactly 1

  // Identical run: the aggregate must match a hand-folded RunIteration
  // stream.
  Feat replay(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig());
  int episodes = 0;
  double loss_sum = 0.0;
  long long hits = 0;
  long long misses = 0;
  for (int i = 0; i < 6; ++i) {
    const IterationStats stats = replay.RunIteration();
    episodes += stats.episodes;
    loss_sum += stats.mean_loss;
    hits += stats.cache_hits;
    misses += stats.cache_misses;
  }
  EXPECT_EQ(totals.episodes, episodes);
  EXPECT_EQ(totals.mean_loss, loss_sum / 6);
  // Cache deltas are counted against the shared problem's evaluators, whose
  // cache the first run already warmed — so compare only determinism-safe
  // aggregates here (the sharded-training suite compares cache deltas
  // between runs on separate problems).
  EXPECT_LE(misses, totals.cache_misses);
}

TEST_F(FeatTest, SelectForRepresentationIsDeterministic) {
  Feat feat(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig());
  feat.Train(10);
  const std::vector<float> repr =
      problem_.ComputeTaskRepresentation(dataset_.UnseenTaskIndices()[0]);
  const FeatureMask a = feat.SelectForRepresentation(repr);
  const FeatureMask b = feat.SelectForRepresentation(repr);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pafeat
