// The collector plane's determinism contract (DESIGN.md "Sharded training
// plane"): training at num_threads N, whose episodes are dealt round-robin
// to min(N, envs) collectors, must be bit-identical to the one-thread run —
// same network parameters, same replay buffer contents transition by
// transition, same scheduler probability traces, and same per-iteration
// stats (everything but wall time). Each run gets its own dataset +
// FsProblem so reward-cache hit/miss deltas are comparable too.

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/defaults.h"
#include "core/feat.h"
#include "core/pafeat.h"
#include "data/synthetic.h"

namespace pafeat {
namespace {

SyntheticDataset CollectorDataset() {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_features = 10;
  spec.num_seen_tasks = 3;
  spec.num_unseen_tasks = 2;
  spec.seed = 17;
  return GenerateSynthetic(spec);
}

FeatConfig CollectorFeatConfig(int num_threads) {
  FeatConfig config = DefaultFeatOptions(50, 23).feat;
  // Enough episodes per iteration that every thread count in {1, 2, 3, 8}
  // gives multi-episode collectors, unequal ones at 3 (3/3/2), and at 8 one
  // episode per collector.
  config.envs_per_iteration = 8;
  config.max_feature_ratio = 0.5;
  config.num_threads = num_threads;
  return config;
}

std::string FloatBits(float value) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  std::ostringstream out;
  out << bits;
  return out.str();
}

std::string DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  std::ostringstream out;
  out << bits;
  return out.str();
}

void AppendState(const EnvState& state, std::ostringstream* out) {
  *out << 'p' << state.position << 'm';
  for (uint8_t bit : state.mask) *out << static_cast<int>(bit);
}

// Exact textual image of every replay buffer: trajectory boundaries, every
// transition field, and reward/return bit patterns. String equality between
// two dumps is byte-equality of the buffers.
std::string DumpReplayBuffers(const Feat& feat) {
  std::ostringstream out;
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    const ReplayBuffer& buffer = *feat.task_runtime(slot).buffer;
    out << "slot " << slot << " transitions " << buffer.num_transitions()
        << "\n";
    for (const Trajectory* trajectory :
         buffer.RecentTrajectories(buffer.num_trajectories())) {
      out << " traj return " << DoubleBits(trajectory->episode_return)
          << "\n";
      for (int s = 0; s < trajectory->num_steps(); ++s) {
        const StoredStep& t = trajectory->steps[s];
        out << "  ";
        AppendState(trajectory->StateBefore(s), &out);
        out << " a" << static_cast<int>(t.action) << " r"
            << FloatBits(t.reward) << ' ';
        AppendState(trajectory->StateBefore(s + 1), &out);
        out << " d" << t.done << "\n";
      }
    }
  }
  return out.str();
}

struct TrainOutcome {
  std::vector<float> params;
  std::string buffers;
  std::vector<IterationStats> stats;
};

// Shapes rewards with both hook streams: BeginEpisode draws the context on
// the planning stream, Shape draws on the episode stream — so the test
// covers shaper RNG interleavings across collectors, not just plain
// episodes.
class JitterShaper : public RewardShaper {
 public:
  double BeginEpisode(int, Rng* rng) override {
    return rng->Uniform(0.5, 1.5);
  }
  double Shape(double reward, int, double context, Rng* rng) override {
    return reward * context + 0.01 * rng->Uniform();
  }
};

TrainOutcome RunTraining(int num_threads, bool use_its, bool use_shaper,
                         int iterations) {
  SyntheticDataset dataset = CollectorDataset();
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 19);
  Feat feat(&problem, dataset.SeenTaskIndices(),
            CollectorFeatConfig(num_threads));
  if (use_its) feat.SetScheduler(std::make_unique<ItsScheduler>(4));
  if (use_shaper) feat.SetRewardShaper(std::make_unique<JitterShaper>());
  TrainOutcome outcome;
  for (int i = 0; i < iterations; ++i) {
    outcome.stats.push_back(feat.RunIteration());
  }
  outcome.params = feat.agent().online_net().SerializeParams();
  outcome.buffers = DumpReplayBuffers(feat);
  return outcome;
}

void ExpectSameOutcome(const TrainOutcome& base, const TrainOutcome& other,
                       int num_threads) {
  ASSERT_EQ(base.params.size(), other.params.size());
  for (size_t i = 0; i < base.params.size(); ++i) {
    ASSERT_EQ(base.params[i], other.params[i])
        << "param " << i << " at num_threads " << num_threads;
  }
  EXPECT_EQ(base.buffers, other.buffers) << "num_threads " << num_threads;
  ASSERT_EQ(base.stats.size(), other.stats.size());
  for (size_t i = 0; i < base.stats.size(); ++i) {
    ASSERT_EQ(base.stats[i].mean_loss, other.stats[i].mean_loss)
        << "iteration " << i << " at num_threads " << num_threads;
    ASSERT_EQ(base.stats[i].episodes, other.stats[i].episodes);
    ASSERT_EQ(base.stats[i].cache_hits, other.stats[i].cache_hits)
        << "iteration " << i << " at num_threads " << num_threads;
    ASSERT_EQ(base.stats[i].cache_misses, other.stats[i].cache_misses)
        << "iteration " << i << " at num_threads " << num_threads;
    // The scheduler probability trace: with the ITS installed these depend
    // on the recent trajectories, so any thread-count divergence in buffer
    // state shows up here within one iteration.
    ASSERT_EQ(base.stats[i].task_probabilities,
              other.stats[i].task_probabilities)
        << "iteration " << i << " at num_threads " << num_threads;
  }
}

TEST(ShardedTrainingTest, UniformSchedulerBitIdenticalAcrossThreadCounts) {
  const TrainOutcome base =
      RunTraining(1, /*use_its=*/false, /*use_shaper=*/false, 10);
  for (int num_threads : {2, 3, 8}) {
    ExpectSameOutcome(
        base,
        RunTraining(num_threads, /*use_its=*/false, /*use_shaper=*/false, 10),
        num_threads);
  }
}

TEST(ShardedTrainingTest, ItsSchedulerBitIdenticalAcrossThreadCounts) {
  // ITS probabilities are a function of the replay buffers' recent
  // trajectories, so this closes the loop: thread-count-dependent buffer
  // state would change the very next iteration's episode plans.
  const TrainOutcome base =
      RunTraining(1, /*use_its=*/true, /*use_shaper=*/false, 10);
  for (int num_threads : {2, 3, 8}) {
    ExpectSameOutcome(
        base,
        RunTraining(num_threads, /*use_its=*/true, /*use_shaper=*/false, 10),
        num_threads);
  }
}

TEST(ShardedTrainingTest, RewardShaperBitIdenticalAcrossThreadCounts) {
  const TrainOutcome base =
      RunTraining(1, /*use_its=*/false, /*use_shaper=*/true, 8);
  for (int num_threads : {2, 3, 8}) {
    ExpectSameOutcome(
        base,
        RunTraining(num_threads, /*use_its=*/false, /*use_shaper=*/true, 8),
        num_threads);
  }
}

TEST(ShardedTrainingTest, PaFeatFullMethodMatchesSingleThread) {
  // The complete method (ITS + ITE initial states) through the PaFeat
  // facade: the Experience-Tree consumes trajectories in commit order, so a
  // collector writing a result into the wrong plan slot would desynchronize
  // proposed initial states.
  auto run = [](int num_threads) {
    SyntheticDataset dataset = CollectorDataset();
    FsProblem problem(dataset.table, DefaultProblemConfig(true), 19);
    PaFeatConfig config;
    config.feat = DefaultFeatOptions(60, 23).feat;
    config.feat.envs_per_iteration = 8;
    config.feat.num_threads = num_threads;
    PaFeat pafeat(&problem, dataset.SeenTaskIndices(), config);
    pafeat.Train(10);
    std::vector<FeatureMask> masks;
    for (int unseen : dataset.UnseenTaskIndices()) {
      const std::vector<float> repr =
          problem.ComputeTaskRepresentation(unseen);
      masks.push_back(pafeat.feat().SelectForRepresentation(repr));
    }
    return std::make_pair(
        pafeat.feat().agent().online_net().SerializeParams(), masks);
  };
  const auto base = run(1);
  for (int num_threads : {2, 3, 8}) {
    const auto pooled = run(num_threads);
    EXPECT_EQ(base.first, pooled.first) << "num_threads " << num_threads;
    EXPECT_EQ(base.second, pooled.second) << "num_threads " << num_threads;
  }
}

}  // namespace
}  // namespace pafeat
