// The batched inference plane (DESIGN.md "Batched inference plane"): every
// layer of the stack produces row bits that do not depend on the batch
// composition — the row-wise GEMM core, DuelingNet::PredictBatchInto,
// DqnAgent::ActBatch and the multi-task greedy scan — and full training
// through the one episode-collection path reproduces frozen digests at any
// thread count. "Equal" here always means bit-identical floats, not merely
// close.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/defaults.h"
#include "core/feat.h"
#include "core/greedy_policy.h"
#include "core/pafeat.h"
#include "data/synthetic.h"
#include "golden/training_digests.h"
#include "nn/dueling_net.h"
#include "nn/workspace.h"
#include "rl/dqn_agent.h"
#include "rl/fs_env.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"

namespace pafeat {
namespace {

std::vector<float> RandomVec(size_t size, Rng* rng) {
  std::vector<float> v(size);
  for (float& x : v) x = static_cast<float>(rng->Normal(0.0, 1.0));
  return v;
}

// The foundation of the whole plane: every row of a batched GemmNTRowwise
// call carries exactly the bits a single-row call would produce, for any
// batch size and any shape (including remainder rows past the 4-row
// interleave and odd reduction lengths that exercise the scalar tail).
TEST(BatchedInferenceTest, GemmNTRowwiseRowsMatchSingleRowCallsBitwise) {
  Rng rng(0x5eed);
  const int n = 17;
  for (int m : {1, 2, 3, 4, 5, 7, 8, 9, 16, 33}) {
    for (int p : {1, 3, 8, 11, 64, 147, 515}) {
      const std::vector<float> a = RandomVec(static_cast<size_t>(m) * p, &rng);
      const std::vector<float> b = RandomVec(static_cast<size_t>(n) * p, &rng);
      std::vector<float> batched(static_cast<size_t>(m) * n, 0.0f);
      kernels::GemmNTRowwise(m, n, p, a.data(), p, b.data(), p,
                             batched.data(), n);
      for (int i = 0; i < m; ++i) {
        std::vector<float> single(n, 0.0f);
        kernels::GemmNT(1, n, p, a.data() + static_cast<size_t>(i) * p, p,
                        b.data(), p, single.data(), n);
        ASSERT_EQ(std::memcmp(batched.data() + static_cast<size_t>(i) * n,
                              single.data(), sizeof(float) * n),
                  0)
            << "row " << i << " m=" << m << " p=" << p;
      }
    }
  }
}

// Above the flop threshold the dispatcher splits the batch into row panels
// and runs them on the pool; the split must never reach the result bits.
TEST(BatchedInferenceTest, GemmNTRowwisePanelSplitPreservesRowBits) {
  ThreadPool::EnsureGlobalWorkers(3);
  Rng rng(0xab1e);
  const int m = 64, n = 64, p = 600;  // 2*m*n*p ~ 4.9 MFLOP: multiple panels
  const std::vector<float> a = RandomVec(static_cast<size_t>(m) * p, &rng);
  const std::vector<float> b = RandomVec(static_cast<size_t>(n) * p, &rng);
  std::vector<float> batched(static_cast<size_t>(m) * n, 0.0f);
  kernels::GemmNTRowwise(m, n, p, a.data(), p, b.data(), p, batched.data(),
                         n);
  for (int i = 0; i < m; ++i) {
    std::vector<float> single(n, 0.0f);
    kernels::GemmNT(1, n, p, a.data() + static_cast<size_t>(i) * p, p,
                    b.data(), p, single.data(), n);
    ASSERT_EQ(std::memcmp(batched.data() + static_cast<size_t>(i) * n,
                          single.data(), sizeof(float) * n),
              0)
        << "row " << i;
  }
}

DuelingNetConfig SmallNetConfig(int input_dim) {
  DuelingNetConfig config;
  config.input_dim = input_dim;
  config.trunk_hidden = {24, 16};
  config.num_actions = kNumActions;
  return config;
}

// The batched forward against the net's matrix path (Predict): row r of a
// batch carries exactly the bits of a one-row Predict of that row.
TEST(BatchedInferenceTest, PredictBatchIntoRowsMatchSingleRowPredictInto) {
  Rng rng(0xd0e);
  const int obs_dim = 23;
  const DuelingNetConfig config = SmallNetConfig(obs_dim);
  DuelingNet net(config, &rng);
  InferenceArena* arena = InferenceArena::ThreadLocal();
  for (int rows : {1, 2, 5, 8, 13}) {
    const std::vector<float> states =
        RandomVec(static_cast<size_t>(rows) * obs_dim, &rng);
    std::vector<float> batched(static_cast<size_t>(rows) * kNumActions);
    net.PredictBatchInto(rows, states.data(), arena, batched.data());
    for (int r = 0; r < rows; ++r) {
      Matrix row(1, obs_dim);
      std::memcpy(row.data(), states.data() + static_cast<size_t>(r) * obs_dim,
                  sizeof(float) * obs_dim);
      const Matrix single = net.Predict(row);
      ASSERT_EQ(std::memcmp(batched.data() + static_cast<size_t>(r) *
                                                 kNumActions,
                            single.data(), sizeof(float) * kNumActions),
                0)
          << "rows=" << rows << " row=" << r;
    }
  }
}

TEST(BatchedInferenceTest, ActBatchMatchesGreedyActPerRow) {
  Rng rng(0xac7);
  DqnConfig config;
  config.net = SmallNetConfig(23);
  Rng net_rng = rng.Fork(1);
  DqnAgent agent(config, &net_rng);
  const int rows = 9;
  const std::vector<float> observations =
      RandomVec(static_cast<size_t>(rows) * 23, &rng);
  std::vector<int> batched(rows);
  agent.ActBatch(rows, observations.data(), batched.data());
  std::vector<float> batched_q(static_cast<size_t>(rows) * kNumActions);
  agent.QValuesBatchInto(rows, observations.data(), batched_q.data());
  for (int r = 0; r < rows; ++r) {
    const float* observation =
        observations.data() + static_cast<size_t>(r) * 23;
    int single = -1;
    agent.ActBatch(1, observation, &single);
    EXPECT_EQ(batched[r], single) << "row " << r;
    // And the Q-values behind the argmax agree bit-for-bit with the batch.
    std::vector<float> single_q(kNumActions);
    agent.QValuesBatchInto(1, observation, single_q.data());
    EXPECT_EQ(std::memcmp(single_q.data(),
                          batched_q.data() + static_cast<size_t>(r) *
                                                 kNumActions,
                          sizeof(float) * kNumActions),
              0)
        << "row " << r;
  }
}

TEST(BatchedInferenceTest, GreedySelectSubsetsMatchesPerTaskScans) {
  Rng rng(0x6e3);
  const int m = 12;
  const DuelingNetConfig config = SmallNetConfig(2 * m + 3);
  DuelingNet net(config, &rng);
  std::vector<std::vector<float>> reprs;
  for (int t = 0; t < 5; ++t) reprs.push_back(RandomVec(m, &rng));
  const std::vector<FeatureMask> batched =
      GreedySelectSubsets(net, reprs, 0.4);
  ASSERT_EQ(batched.size(), reprs.size());
  for (size_t t = 0; t < reprs.size(); ++t) {
    EXPECT_EQ(batched[t], GreedySelectSubset(net, reprs[t], 0.4))
        << "task " << t;
  }
}

// The greedy scan's first-layer carry against the full forward: at every
// step of a scan, the Q row finished from the carry must carry the bits of
// PredictBatchInto on the whole observation. The scan state owns no
// buffers, so the test reads the very observation the carried step used.
// m runs over every m mod 8 on both sides of the carried bound 8*(2m/8),
// and the decisions follow the full forward, so a drifting carry cannot
// steer the scan away from the states it is checked on.
TEST(BatchedInferenceTest, CarriedScanMatchesFullForward) {
  InferenceArena* arena = InferenceArena::ThreadLocal();
  std::vector<int> sizes;
  for (int m = 1; m <= 17; ++m) sizes.push_back(m);
  for (int m : {103, 520, 1020}) sizes.push_back(m);
  int carried_appends = 0;
  int deselects = 0;
  for (const std::vector<int>& trunk :
       {std::vector<int>{64, 64}, std::vector<int>{32}}) {
    for (int m : sizes) {
      DuelingNetConfig config;
      config.input_dim = 2 * m + 3;
      config.trunk_hidden = trunk;
      config.num_actions = kNumActions;
      Rng rng(0xca77 + m);
      const DuelingNet net(config, &rng);
      const std::vector<std::vector<float>> reprs = {
          RandomVec(m, &rng), std::vector<float>(m, 0.37f)};
      for (const std::vector<float>& repr : reprs) {
        for (double ratio : {0.1, 0.5, 1.0}) {
          std::vector<float> observation(2 * m + 3);
          std::vector<float> carry(net.carry_size());
          FeatureMask mask(m, 0);
          GreedyScanState scan;
          scan.Bind(&net, repr.data(), m, ratio, observation.data(),
                    carry.data(), &mask);
          std::vector<float> sum(net.first_layer_width());
          float carried_q[kNumActions];
          float full_q[kNumActions];
          while (!scan.ScanDone()) {
            const int position = scan.position();
            const int selected = scan.selected_count();
            scan.EmitFirstLayerRow(sum.data());
            net.PredictFromFirstLayerInto(1, sum.data(), arena, carried_q);
            net.PredictBatchInto(1, observation.data(), arena, full_q);
            ASSERT_EQ(std::memcmp(carried_q, full_q, sizeof(full_q)), 0)
                << "m=" << m << " trunk[0]=" << trunk[0] << " ratio="
                << ratio << " position=" << position;
            scan.ApplyDecision(full_q);
            if (scan.selected_count() == selected) {
              ++deselects;
            } else if (m + position < 2 * m / 8 * 8) {
              ++carried_appends;
            }
          }
        }
      }
    }
  }
  // Both branches of the carry ran: appends into it, and steps past them.
  EXPECT_GT(carried_appends, 0);
  EXPECT_GT(deselects, 0);
}

// --- full-training equivalence ---------------------------------------------

SyntheticDataset SmallDataset() {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_features = 10;
  spec.num_seen_tasks = 3;
  spec.num_unseen_tasks = 2;
  spec.seed = 17;
  return GenerateSynthetic(spec);
}

FeatConfig SmallFeatConfig(int threads) {
  FeatConfig config = DefaultFeatOptions(50, 23).feat;
  config.envs_per_iteration = 4;
  config.max_feature_ratio = 0.5;
  config.num_threads = threads;
  return config;
}

void ExpectIdenticalTraining(Feat* a, Feat* b, const FsProblem& problem,
                             const std::vector<int>& unseen) {
  for (int iteration = 0; iteration < 10; ++iteration) {
    const IterationStats stats_a = a->RunIteration();
    const IterationStats stats_b = b->RunIteration();
    ASSERT_EQ(stats_a.mean_loss, stats_b.mean_loss)
        << "iteration " << iteration;
    ASSERT_EQ(stats_a.episodes, stats_b.episodes);
  }
  // Network parameters, bit for bit.
  EXPECT_EQ(a->agent().online_net().SerializeParams(),
            b->agent().online_net().SerializeParams());
  // Replay buffer contents, transition by transition: same states, actions,
  // reward bits, and termination flags in the same order.
  for (int slot = 0; slot < a->num_tasks(); ++slot) {
    const auto traj_a =
        a->task_runtime(slot).buffer->RecentTrajectories(1 << 20);
    const auto traj_b =
        b->task_runtime(slot).buffer->RecentTrajectories(1 << 20);
    ASSERT_EQ(traj_a.size(), traj_b.size()) << "slot " << slot;
    for (size_t e = 0; e < traj_a.size(); ++e) {
      ASSERT_EQ(traj_a[e]->episode_return, traj_b[e]->episode_return);
      ASSERT_EQ(traj_a[e]->num_steps(), traj_b[e]->num_steps());
      for (int s = 0; s < traj_a[e]->num_steps(); ++s) {
        const StoredStep& ta = traj_a[e]->steps[s];
        const StoredStep& tb = traj_b[e]->steps[s];
        ASSERT_TRUE(traj_a[e]->StateBefore(s) == traj_b[e]->StateBefore(s))
            << "slot " << slot << " step " << s;
        ASSERT_TRUE(traj_a[e]->StateBefore(s + 1) ==
                    traj_b[e]->StateBefore(s + 1));
        ASSERT_EQ(ta.action, tb.action);
        ASSERT_EQ(std::memcmp(&ta.reward, &tb.reward, sizeof(float)), 0);
        ASSERT_EQ(ta.done, tb.done);
      }
    }
  }
  // Final selections for the unseen tasks.
  for (int label_index : unseen) {
    const std::vector<float> repr =
        problem.ComputeTaskRepresentation(label_index);
    EXPECT_EQ(a->SelectForRepresentation(repr),
              b->SelectForRepresentation(repr));
  }
}

// The two training configurations the goldens pin: plain FEAT (uniform
// scheduler) and the full PaFeat method, whose ITS probabilities and ITE
// initial states both feed back from the replay buffers.
enum class GoldenMethod { kFeat, kPaFeat };

struct GoldenRun {
  GoldenMethod method;
  int num_threads;
};

std::string Describe(const GoldenRun& run) {
  std::ostringstream out;
  out << (run.method == GoldenMethod::kFeat
              ? "Feat (DefaultFeatOptions(50, 23), 4 envs)"
              : "PaFeat ITS+ITE (DefaultFeatOptions(60, 23), 8 envs)")
      << " num_threads=" << run.num_threads;
  return out.str();
}

// Runs 10 training iterations and digests, in order: each iteration's mean
// loss and episode count (plus its task probabilities when asked); the
// online parameters; every stored trajectory's return and transitions
// (positions, masks, action, reward bits, done); and each unseen task's
// greedy selection.
uint64_t DigestTraining(Feat* feat, const FsProblem& problem,
                        const std::vector<int>& unseen,
                        bool with_task_probabilities) {
  golden::Fnv1a64 digest;
  for (int iteration = 0; iteration < 10; ++iteration) {
    const IterationStats stats = feat->RunIteration();
    digest.Scalar(stats.mean_loss);
    digest.Scalar<int32_t>(stats.episodes);
    if (with_task_probabilities) {
      for (double p : stats.task_probabilities) digest.Scalar(p);
    }
  }
  for (float parameter : feat->agent().online_net().SerializeParams()) {
    digest.Scalar(parameter);
  }
  for (int slot = 0; slot < feat->num_tasks(); ++slot) {
    feat->task_runtime(slot).buffer->ForEachStored(
        [&](const Trajectory& trajectory, double) {
          digest.StoredTrajectory(trajectory);
        });
  }
  for (int label_index : unseen) {
    digest.Mask(feat->SelectForRepresentation(
        problem.ComputeTaskRepresentation(label_index)));
  }
  return digest.value();
}

// Trains the golden configuration on a fresh problem and digests it.
uint64_t TrainingDigest(const GoldenRun& run) {
  const SyntheticDataset dataset = SmallDataset();
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 19);
  PaFeatConfig config;
  if (run.method == GoldenMethod::kFeat) {
    config.feat = SmallFeatConfig(run.num_threads);
    config.use_its = false;
    config.use_ite = false;
  } else {
    config.feat = DefaultFeatOptions(60, 23).feat;
    config.feat.envs_per_iteration = 8;
    config.feat.num_threads = run.num_threads;
  }
  const int workers_before = ThreadPool::Global()->num_workers();
  PaFeat pafeat(&problem, dataset.SeenTaskIndices(), config);
  // The pool grows only to its collectors or one executor per gradient
  // step of an iteration, whichever is more.
  const int usable_executors = std::min(
      run.num_threads,
      std::max(config.feat.envs_per_iteration,
               pafeat.feat().num_tasks() * config.feat.updates_per_task));
  EXPECT_LE(ThreadPool::Global()->num_workers(),
            std::max(workers_before, usable_executors - 1))
      << Describe(run);
  return DigestTraining(&pafeat.feat(), problem, dataset.UnseenTaskIndices(),
                        run.method == GoldenMethod::kPaFeat);
}

void ExpectGolden(GoldenMethod method, const golden::TrainingGolden& golden) {
  const uint64_t expected = golden::ExpectedDigest(golden);
  for (const int num_threads : {1, 3, 8, 64}) {
    const GoldenRun run{method, num_threads};
    const uint64_t digest = TrainingDigest(run);
    EXPECT_EQ(digest, expected)
        << golden::DescribeComputed(digest) << " for " << Describe(run);
  }
}

// One collection path pinned by frozen digests: training at {1, 3, 8, 64}
// threads must reproduce the recorded run bit for bit. At 3 threads the
// collectors get unequal episode counts (2/1/1 of 4, 3/3/2 of 8); at 64
// there are more threads than episodes.
TEST(TrainingGoldenTest, FeatMatchesGolden) {
  ExpectGolden(GoldenMethod::kFeat, golden::kFeatTraining);
}

TEST(TrainingGoldenTest, PaFeatMatchesGolden) {
  ExpectGolden(GoldenMethod::kPaFeat, golden::kPaFeatTraining);
}

class BatchedTrainingTest : public ::testing::Test {
 protected:
  BatchedTrainingTest()
      : dataset_(SmallDataset()),
        problem_(dataset_.table, DefaultProblemConfig(true), 19) {}

  // The legacy side is the Feat golden, recorded from the blocking
  // reference loop at one thread (tests/golden/training_digests.h).
  void ExpectMatchesLegacy(Feat* feat) {
    const uint64_t digest = DigestTraining(
        feat, problem_, dataset_.UnseenTaskIndices(),
        /*with_task_probabilities=*/false);
    EXPECT_EQ(digest, golden::ExpectedDigest(golden::kFeatTraining))
        << "num_threads=" << feat->config().num_threads;
  }

  SyntheticDataset dataset_;
  FsProblem problem_;
};

// Step-synchronous batched collection produces the same trajectories,
// buffers, parameters, and selections as the blocking reference loop it
// replaced — the batching is a pure execution-plan change.
TEST_F(BatchedTrainingTest, BatchedMatchesLegacyBitwise) {
  Feat batched(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig(1));
  ExpectMatchesLegacy(&batched);
}

// And the thread-count half of the contract, through the batched plane:
// dealing the episodes to parallel collectors must not reach results.
TEST_F(BatchedTrainingTest, BatchedBitIdenticalAcrossThreadCounts) {
  Feat serial(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig(1));
  Feat pooled(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig(8));
  ExpectIdenticalTraining(&serial, &pooled, problem_,
                          dataset_.UnseenTaskIndices());
}

// Cross shape: multi-threaded batched vs the single-threaded reference loop
// — the two ends of the execution-plan space.
TEST_F(BatchedTrainingTest, PooledBatchedMatchesSerialLegacy) {
  Feat pooled(&problem_, dataset_.SeenTaskIndices(), SmallFeatConfig(8));
  ExpectMatchesLegacy(&pooled);
}

}  // namespace
}  // namespace pafeat
