// The bounded experience-memory plane (DESIGN.md "Bounded memory plane"):
// the tiered reward cache's budget/eviction/telemetry contracts, the replay
// buffer's budget eviction order, and the end-to-end determinism claim —
// training under a forced-eviction budget reproduces a frozen digest and is
// bit-identical at any thread count. A PopArt golden pins the training-state
// blob's PopArt statistics and recent returns the same way.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/defaults.h"
#include "core/feat.h"
#include "data/synthetic.h"
#include "golden/training_digests.h"
#include "memory/budget.h"
#include "memory/reward_cache.h"
#include "ml/masked_dnn.h"
#include "ml/subset_evaluator.h"
#include "rl/fs_env.h"
#include "rl/replay_buffer.h"

namespace pafeat {
namespace {

PackedMask Key(uint64_t word) { return PackedMask{word}; }

// Bytes one resident entry costs, measured on a throwaway cache so the
// budget tests track the implementation's own accounting.
std::size_t OneEntryBytes() {
  TieredRewardCache cache(/*byte_budget=*/0);
  cache.SetManualEpochControl(true);
  double value = 0.0;
  EXPECT_EQ(cache.AcquireOrWait(Key(1), &value),
            TieredRewardCache::Probe::kClaimed);
  cache.Publish(Key(1), 0.5);
  return cache.bytes();
}

double MustClaimAndPublish(TieredRewardCache* cache, const PackedMask& key,
                           double value) {
  double out = 0.0;
  EXPECT_EQ(cache->AcquireOrWait(key, &out),
            TieredRewardCache::Probe::kClaimed);
  cache->Publish(key, value);
  return value;
}

constexpr char kCacheBudgetVariable[] = "PAFEAT_CACHE_BUDGET";

// Restores PAFEAT_CACHE_BUDGET when a test ends: the asan CI leg runs the
// whole suite with it set to 65536.
class CacheBudgetVariableGuard {
 public:
  CacheBudgetVariableGuard() {
    if (const char* value = std::getenv(kCacheBudgetVariable)) saved_ = value;
  }
  ~CacheBudgetVariableGuard() {
    if (saved_) {
      setenv(kCacheBudgetVariable, saved_->c_str(), 1);
    } else {
      unsetenv(kCacheBudgetVariable);
    }
  }
  CacheBudgetVariableGuard(const CacheBudgetVariableGuard&) = delete;
  CacheBudgetVariableGuard& operator=(const CacheBudgetVariableGuard&) =
      delete;

 private:
  std::optional<std::string> saved_;
};

TEST(MemoryBudgetTest, ConfiguredValueWinsOverTheVariable) {
  CacheBudgetVariableGuard guard;
  setenv(kCacheBudgetVariable, "65536", 1);
  EXPECT_EQ(ResolveCacheBudgetBytes(4096), 4096u);
  EXPECT_EQ(ResolveCacheBudgetBytes(kMemoryBudgetUnlimited), 0u);
  EXPECT_EQ(ResolveCacheBudgetBytes(kMemoryBudgetDefault), 65536u);
}

// The variable takes a whole decimal byte count; anything else resolves as
// if it were unset (unlimited), never as a number read off its front.
TEST(MemoryBudgetTest, VariableTakesOnlyAWholeDecimalByteCount) {
  CacheBudgetVariableGuard guard;
  unsetenv(kCacheBudgetVariable);
  EXPECT_EQ(ResolveCacheBudgetBytes(kMemoryBudgetDefault), 0u);
  const std::vector<std::pair<const char*, std::size_t>> cases = {
      {"", 0},       {"65536", 65536}, {" 4096 ", 4096},
      {"0", 0},      {"64KB", 0},      {"1e6", 0},
      {"0x100", 0},  {"-5", 0},        {"abc", 0},
      {"99999999999999999999", 0}};
  for (const auto& [value, bytes] : cases) {
    setenv(kCacheBudgetVariable, value, 1);
    EXPECT_EQ(ResolveCacheBudgetBytes(kMemoryBudgetDefault), bytes)
        << kCacheBudgetVariable << "=\"" << value << '"';
  }
}

TEST(TieredRewardCacheTest, HitMissAndWindowedTraffic) {
  TieredRewardCache cache(/*byte_budget=*/0);
  cache.SetManualEpochControl(true);
  MustClaimAndPublish(&cache, Key(7), 0.25);

  double value = 0.0;
  EXPECT_EQ(cache.AcquireOrWait(Key(7), &value),
            TieredRewardCache::Probe::kHit);
  EXPECT_EQ(value, 0.25);

  EXPECT_EQ(cache.total_misses(), 1);
  EXPECT_EQ(cache.total_hits(), 1);

  // The window drains exactly once; running totals persist.
  const MemoryTraffic window = cache.TakeTraffic();
  EXPECT_EQ(window.misses, 1);
  EXPECT_EQ(window.hits, 1);
  EXPECT_EQ(window.evictions, 0);
  const MemoryTraffic empty = cache.TakeTraffic();
  EXPECT_EQ(empty.misses, 0);
  EXPECT_EQ(empty.hits, 0);
  EXPECT_EQ(cache.total_misses(), 1);
  EXPECT_EQ(cache.total_hits(), 1);
}

TEST(TieredRewardCacheTest, SweepEnforcesBudgetAfterHotProtectionExpires) {
  const std::size_t entry = OneEntryBytes();
  TieredRewardCache cache(/*byte_budget=*/2 * entry);
  cache.SetManualEpochControl(true);
  for (uint64_t k = 0; k < 6; ++k) {
    MustClaimAndPublish(&cache, Key(k), static_cast<double>(k));
  }
  // Everything published this epoch is hot: the closing sweep may overshoot
  // the budget rather than evict values the running iteration produced.
  cache.AdvanceEpoch();
  EXPECT_EQ(cache.live_entries(), 6u);
  // One epoch later the entries are cold and the sweep fits the budget.
  cache.AdvanceEpoch();
  EXPECT_LE(cache.bytes(), 2 * entry);
  EXPECT_GT(cache.total_evictions(), 0);
}

TEST(TieredRewardCacheTest, TouchedEntriesSurviveTheSweep) {
  const std::size_t entry = OneEntryBytes();
  TieredRewardCache cache(/*byte_budget=*/2 * entry);
  cache.SetManualEpochControl(true);
  for (uint64_t k = 0; k < 6; ++k) {
    MustClaimAndPublish(&cache, Key(k), static_cast<double>(k));
  }
  cache.AdvanceEpoch();
  // Touch key 3 in the new epoch: it is hot for the next sweep.
  double value = 0.0;
  EXPECT_EQ(cache.AcquireOrWait(Key(3), &value),
            TieredRewardCache::Probe::kHit);
  cache.AdvanceEpoch();
  EXPECT_LE(cache.bytes(), 3 * entry);  // hot set may overshoot by key 3

  std::vector<std::pair<PackedMask, double>> entries;
  cache.ExportEntries(&entries);
  bool found = false;
  for (const auto& [key, v] : entries) {
    if (key == Key(3)) {
      found = true;
      EXPECT_EQ(v, 3.0);
    }
  }
  EXPECT_TRUE(found) << "the entry hit this epoch must not be evicted";
}

TEST(TieredRewardCacheTest, EvictionIsInsensitiveToPublishOrder) {
  // Two caches see the same per-epoch publish and hit *sets* in different
  // orders — the slab layout and the whole eviction sequence must match
  // (this is what makes cache telemetry thread-count invariant).
  const std::size_t entry = OneEntryBytes();
  TieredRewardCache forward(/*byte_budget=*/3 * entry);
  TieredRewardCache backward(/*byte_budget=*/3 * entry);
  forward.SetManualEpochControl(true);
  backward.SetManualEpochControl(true);

  for (int epoch = 0; epoch < 4; ++epoch) {
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 5; ++k) {
      keys.push_back(static_cast<uint64_t>(epoch) * 4 + k);  // overlapping
    }
    for (uint64_t k : keys) {
      double value = 0.0;
      if (forward.AcquireOrWait(Key(k), &value) ==
          TieredRewardCache::Probe::kClaimed) {
        forward.Publish(Key(k), static_cast<double>(k));
      }
    }
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
      double value = 0.0;
      if (backward.AcquireOrWait(Key(*it), &value) ==
          TieredRewardCache::Probe::kClaimed) {
        backward.Publish(Key(*it), static_cast<double>(*it));
      }
    }
    forward.AdvanceEpoch();
    backward.AdvanceEpoch();
    EXPECT_EQ(forward.total_evictions(), backward.total_evictions())
        << "epoch " << epoch;
  }

  std::vector<std::pair<PackedMask, double>> a, b;
  forward.ExportEntries(&a);
  backward.ExportEntries(&b);
  EXPECT_EQ(a, b);
}

TEST(TieredRewardCacheTest, UnboundedCacheNeverEvicts) {
  TieredRewardCache cache(/*byte_budget=*/0);
  cache.SetManualEpochControl(true);
  for (uint64_t k = 0; k < 200; ++k) {
    MustClaimAndPublish(&cache, Key(k), static_cast<double>(k));
    if (k % 10 == 0) cache.AdvanceEpoch();
  }
  cache.AdvanceEpoch();
  cache.AdvanceEpoch();
  EXPECT_EQ(cache.live_entries(), 200u);
  EXPECT_EQ(cache.total_evictions(), 0);
}

TEST(TieredRewardCacheTest, ImportBypassesTrafficAndDuplicates) {
  TieredRewardCache cache(/*byte_budget=*/0);
  cache.SetManualEpochControl(true);
  cache.ImportEntry(Key(11), 0.75);
  cache.ImportEntry(Key(11), 0.25);  // duplicate import: first value wins
  const MemoryTraffic window = cache.TakeTraffic();
  EXPECT_EQ(window.hits, 0);
  EXPECT_EQ(window.misses, 0);

  double value = 0.0;
  EXPECT_EQ(cache.AcquireOrWait(Key(11), &value),
            TieredRewardCache::Probe::kHit);
  EXPECT_EQ(value, 0.75);
  EXPECT_EQ(cache.live_entries(), 1u);
}

// The cache's memory property under seeded random budgets: after every
// epoch close the charge is the fixed formula over what is resident, the
// live count is what is resident, and the charge is within budget unless
// every resident entry was published or hit in the epoch just closed (the
// hot set may overshoot for one epoch). Keys of one to three words vary the
// charge per entry.
TEST(TieredRewardCacheTest, ResidentBytesWithinBudgetAfterEveryEpochClose) {
  const std::size_t entry = OneEntryBytes();  // a one-word key's charge
  Rng rng(0xb0d6e7);
  std::vector<std::size_t> budgets = {0, entry - 1, 3 * entry, 7 * entry};
  while (budgets.size() < 12) {
    budgets.push_back(static_cast<std::size_t>(
        rng.UniformInt(static_cast<int>(40 * entry))));
  }
  uint64_t next_key = 1;
  for (const std::size_t budget : budgets) {
    TieredRewardCache cache(budget);
    cache.SetManualEpochControl(true);
    int overshoots = 0;
    for (int epoch = 0; epoch < 30; ++epoch) {
      std::set<PackedMask> touched;
      // Hit some resident entries (chosen before the publishes, so every
      // probe is a hit), then publish fresh keys.
      std::vector<std::pair<PackedMask, double>> resident;
      cache.ExportEntries(&resident);
      const int hits = resident.empty() ? 0 : rng.UniformInt(6);
      for (int h = 0; h < hits; ++h) {
        const auto& [key, want] = resident[rng.UniformInt(
            static_cast<int>(resident.size()))];
        double value = 0.0;
        ASSERT_EQ(cache.AcquireOrWait(key, &value),
                  TieredRewardCache::Probe::kHit);
        ASSERT_EQ(value, want);
        touched.insert(key);
      }
      const int publishes = rng.UniformInt(12);
      for (int p = 0; p < publishes; ++p) {
        PackedMask key(1 + rng.UniformInt(3), 0);
        key[0] = next_key++;
        MustClaimAndPublish(&cache, key, static_cast<double>(key[0]));
        touched.insert(key);
      }
      cache.AdvanceEpoch();

      const std::string where = "budget " + std::to_string(budget) +
                                " epoch " + std::to_string(epoch);
      cache.ExportEntries(&resident);
      std::size_t charged = 0;
      bool all_hot = true;
      for (const auto& [key, value] : resident) {
        charged += 2 * sizeof(uint64_t) * key.size() + 96;
        if (touched.count(key) == 0) all_hot = false;
      }
      ASSERT_EQ(cache.bytes(), charged) << where;
      ASSERT_EQ(cache.live_entries(), resident.size()) << where;
      if (budget == 0) continue;  // unbounded
      if (cache.bytes() > budget) {
        ASSERT_TRUE(all_hot) << where << ": " << cache.bytes()
                             << " bytes resident with a cold entry";
        ++overshoots;
      }
    }
    if (budget > 0 && budget < entry) {
      EXPECT_GT(overshoots, 0) << "a budget below one entry must overshoot";
    }
  }
}

// The same budgets under the reward path: environment scans over a wide
// task with the cache evicting at every episode close, so the records' sums
// lag behind hits and restart at every Reset/ResetTo against entries that
// come and go. Every reward must carry the fresh evaluation's bits.
TEST(TieredRewardCacheTest, ScanRewardsExactUnderRandomBudgets) {
  const int m = 70;
  Rng rng(0x5ca7);
  const Matrix features = Matrix::RandomNormal(64, m, 1.0f, &rng);
  std::vector<float> labels(64);
  std::vector<int> rows(64);
  for (int r = 0; r < 64; ++r) {
    labels[r] = features.At(r, 3) - features.At(r, 66) > 0.0f ? 1.0f : 0.0f;
    rows[r] = r;
  }
  MaskedDnnConfig config;
  config.hidden_dims = {16};
  config.epochs = 2;
  MaskedDnnClassifier classifier(config);
  classifier.Fit(features, labels, rows, &rng);
  const std::vector<float> representation(m, 0.25f);
  for (int trial = 0; trial < 4; ++trial) {
    const long long budget = 1 + rng.UniformInt(3000);
    const SubsetEvaluator evaluator(&features, labels, rows, &classifier,
                                    budget);
    evaluator.SetManualCacheControl(true);
    FeatureSelectionEnv env(representation, &evaluator, 0.6);
    for (int episode = 0; episode < 12; ++episode) {
      if (episode % 3 == 2) {
        EnvState start;
        start.mask.assign(m, 0);
        start.position = rng.UniformInt(m / 2);
        for (int c = 0; c < start.position; ++c) {
          start.mask[c] = rng.Bernoulli(0.2) ? 1 : 0;
        }
        env.ResetTo(start);
      } else {
        env.Reset();
      }
      while (!env.Done()) {
        env.Step(rng.Bernoulli(0.4) ? kActionSelect : kActionDeselect);
        const double carried = env.current_performance();
        const double fresh = evaluator.EvaluateUncached(env.state().mask);
        ASSERT_EQ(std::memcmp(&carried, &fresh, sizeof(double)), 0)
            << "budget " << budget << " episode " << episode << " "
            << MaskToString(env.state().mask);
      }
      evaluator.AdvanceCacheEpoch();
    }
    EXPECT_GT(evaluator.cache_evictions(), 0) << "budget " << budget;
  }
}

Trajectory MakeTrajectory(int transitions, double episode_return,
                          int num_features = 6) {
  Trajectory trajectory;
  trajectory.episode_return = episode_return;
  trajectory.start.mask.assign(num_features, 0);
  trajectory.start.position = 0;
  for (int t = 0; t < transitions; ++t) {
    StoredStep step;
    step.action = static_cast<uint8_t>(t % 2);
    step.reward = static_cast<float>(episode_return / transitions);
    step.done = t + 1 == transitions;
    trajectory.steps.push_back(step);
  }
  return trajectory;
}

// Text image of a buffer in insertion order: priority, length and return
// of every stored trajectory.
std::string DumpBuffer(const ReplayBuffer& buffer) {
  std::ostringstream out;
  buffer.ForEachStored([&](const Trajectory& trajectory, double priority) {
    out << priority << ':' << trajectory.num_steps() << ':'
        << trajectory.episode_return << '\n';
  });
  return out.str();
}

TEST(ReplayBufferTest, BudgetEvictsLowestPriorityOldestFirst) {
  // Priorities collide on purpose so the insertion-order tie-break matters;
  // each trajectory's return is its arrival index.
  const double priorities[] = {0.5, 0.2, 0.5, 0.9, 0.2, 0.7, 0.1, 0.5};
  ReplayBuffer probe(/*capacity_transitions=*/4096);
  probe.AddTrajectory(MakeTrajectory(4, 0.0));
  // Room for exactly four equal-size trajectories.
  ReplayBuffer buffer(/*capacity_transitions=*/4096, 4 * probe.bytes());
  for (int i = 0; i < 8; ++i) {
    buffer.AddTrajectory(MakeTrajectory(4, i), priorities[i]);
  }
  // Each add past the fourth evicts one victim: 1 (the older 0.2), 4 (the
  // other 0.2), 6 (the newcomer's 0.1 is the lowest) and 0 (the oldest of
  // the three 0.5s).
  EXPECT_EQ(DumpBuffer(buffer), "0.5:4:2\n0.9:4:3\n0.7:4:5\n0.5:4:7\n");
  EXPECT_EQ(buffer.evictions(), 4);
  EXPECT_EQ(buffer.bytes(), 4 * probe.bytes());
  EXPECT_EQ(buffer.num_transitions(), 16);
}

TEST(ReplayBufferTest, BudgetEvictionKeepsAtLeastOne) {
  ReplayBuffer buffer(/*capacity_transitions=*/4096,
                      /*byte_budget=*/1);  // impossibly tight
  for (int i = 0; i < 4; ++i) {
    buffer.AddTrajectory(MakeTrajectory(3, i), /*priority=*/i);
  }
  EXPECT_EQ(buffer.num_trajectories(), 1);
  // The survivor is the highest-(priority, insertion order) trajectory.
  EXPECT_EQ(DumpBuffer(buffer), "3:3:3\n");
  buffer.EvictToBudget();
  EXPECT_EQ(buffer.num_trajectories(), 1);
}

// --- end-to-end: forced-eviction training determinism ----------------------

SyntheticDataset MemoryDataset() {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_features = 10;
  spec.num_seen_tasks = 3;
  spec.num_unseen_tasks = 1;
  spec.seed = 29;
  return GenerateSynthetic(spec);
}

std::string DumpBuffers(const Feat& feat) {
  std::ostringstream out;
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    const ReplayBuffer& buffer = *feat.task_runtime(slot).buffer;
    out << "slot " << slot << " transitions " << buffer.num_transitions()
        << "\n";
    buffer.ForEachStored([&](const Trajectory& trajectory, double priority) {
      uint64_t return_bits = 0;
      std::memcpy(&return_bits, &trajectory.episode_return,
                  sizeof(return_bits));
      uint64_t priority_bits = 0;
      std::memcpy(&priority_bits, &priority, sizeof(priority_bits));
      out << ' ' << return_bits << '/' << priority_bits << '/'
          << trajectory.num_steps() << '\n';
    });
  }
  return out.str();
}

struct BoundedOutcome {
  std::vector<float> params;
  std::string buffers;
  std::vector<IterationStats> stats;
  uint64_t digest = 0;  // the bounded golden's FNV-1a 64 (DigestBounded)
};

// The bounded golden's recipe, in order: each iteration's mean loss, episode
// count, cache hits/misses/evictions/bytes, replay evictions and replay
// bytes; the online parameters; every stored trajectory with its priority
// in ForEachStored order.
uint64_t DigestBounded(const Feat& feat,
                       const std::vector<IterationStats>& stats) {
  golden::Fnv1a64 digest;
  for (const IterationStats& iteration : stats) {
    digest.Scalar(iteration.mean_loss);
    digest.Scalar<int32_t>(iteration.episodes);
    digest.Scalar<int64_t>(iteration.cache_hits);
    digest.Scalar<int64_t>(iteration.cache_misses);
    digest.Scalar<int64_t>(iteration.cache_evictions);
    digest.Scalar<uint64_t>(iteration.cache_bytes);
    digest.Scalar<int64_t>(iteration.replay_evictions);
    digest.Scalar<uint64_t>(iteration.replay_bytes);
  }
  for (float parameter : feat.agent().online_net().SerializeParams()) {
    digest.Scalar(parameter);
  }
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    feat.task_runtime(slot).buffer->ForEachStored(
        [&](const Trajectory& trajectory, double priority) {
          digest.StoredTrajectory(trajectory);
          digest.Scalar(priority);
        });
  }
  return digest.value();
}

BoundedOutcome RunBoundedTraining(int num_threads) {
  SyntheticDataset dataset = MemoryDataset();
  FsProblemConfig problem_config = DefaultProblemConfig(true);
  // Tight enough that both planes evict continuously at this scale.
  problem_config.reward_cache_budget_bytes = 4096;
  FsProblem problem(dataset.table, problem_config, 19);
  FeatConfig config = DefaultFeatOptions(50, 23).feat;
  config.envs_per_iteration = 8;
  config.num_threads = num_threads;
  config.replay_budget_bytes = 8192;
  Feat feat(&problem, dataset.SeenTaskIndices(), config);
  BoundedOutcome outcome;
  for (int i = 0; i < 8; ++i) {
    outcome.stats.push_back(feat.RunIteration());
  }
  outcome.params = feat.agent().online_net().SerializeParams();
  outcome.buffers = DumpBuffers(feat);
  outcome.digest = DigestBounded(feat, outcome.stats);
  return outcome;
}

void ExpectSameBoundedOutcome(const BoundedOutcome& base,
                              const BoundedOutcome& other,
                              const std::string& label) {
  ASSERT_EQ(base.params.size(), other.params.size());
  for (std::size_t i = 0; i < base.params.size(); ++i) {
    ASSERT_EQ(base.params[i], other.params[i]) << "param " << i << " " << label;
  }
  EXPECT_EQ(base.buffers, other.buffers) << label;
  ASSERT_EQ(base.stats.size(), other.stats.size());
  for (std::size_t i = 0; i < base.stats.size(); ++i) {
    ASSERT_EQ(base.stats[i].mean_loss, other.stats[i].mean_loss)
        << "iteration " << i << " " << label;
    ASSERT_EQ(base.stats[i].cache_hits, other.stats[i].cache_hits)
        << "iteration " << i << " " << label;
    ASSERT_EQ(base.stats[i].cache_misses, other.stats[i].cache_misses)
        << "iteration " << i << " " << label;
    ASSERT_EQ(base.stats[i].cache_evictions, other.stats[i].cache_evictions)
        << "iteration " << i << " " << label;
    ASSERT_EQ(base.stats[i].replay_evictions, other.stats[i].replay_evictions)
        << "iteration " << i << " " << label;
    ASSERT_EQ(base.stats[i].cache_bytes, other.stats[i].cache_bytes)
        << "iteration " << i << " " << label;
    ASSERT_EQ(base.stats[i].replay_bytes, other.stats[i].replay_bytes)
        << "iteration " << i << " " << label;
  }
}

// Field by field, one collector against three unequal ones and eight: the
// thread count sets the collector count (the "shard count" of the name).
TEST(BoundedTrainingTest, ForcedEvictionIsThreadAndShardCountInvariant) {
  const BoundedOutcome base = RunBoundedTraining(/*num_threads=*/1);

  // The budgets must actually bind, or this test proves nothing.
  long long cache_evictions = 0;
  long long replay_evictions = 0;
  for (const IterationStats& stats : base.stats) {
    cache_evictions += stats.cache_evictions;
    replay_evictions += stats.replay_evictions;
  }
  ASSERT_GT(cache_evictions, 0) << "cache budget did not bind";
  ASSERT_GT(replay_evictions, 0) << "replay budget did not bind";

  ExpectSameBoundedOutcome(base, RunBoundedTraining(3), "3 threads");
  ExpectSameBoundedOutcome(base, RunBoundedTraining(8), "8 threads");
}

// The replay charge is a fixed formula of the stored steps, whatever the
// record's layout: 56 B per trajectory plus 80 + 2m B per step (the
// two-mask record the buffer once held). Under seeded random capacities and
// budgets — unlimited, below one trajectory's charge, and binding — every
// buffer keeps that charge, its budget and its capacity after every
// iteration, unless one trajectory is left.
TEST(BoundedTrainingTest, ReplayChargeIsTheFixedFormulaUnderRandomBudgets) {
  const SyntheticDataset dataset = MemoryDataset();
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 19);
  const std::size_t m = static_cast<std::size_t>(problem.num_features());
  const std::size_t one_step_charge = 56 + 80 + 2 * m;
  Rng rng(2024);
  long long evictions = 0;
  for (int trial = 0; trial < 12; ++trial) {
    FeatConfig config = DefaultFeatOptions(50, 100 + trial).feat;
    config.replay_capacity = 1 + rng.UniformInt(150);
    switch (trial % 4) {
      case 0:
        config.replay_budget_bytes = 0;  // unlimited
        break;
      case 1:  // below any trajectory's charge
        config.replay_budget_bytes =
            1 + rng.UniformInt(static_cast<int>(one_step_charge) - 1);
        break;
      default:
        config.replay_budget_bytes = 1 + rng.UniformInt(8000 * (trial % 4));
        break;
    }
    const std::string label =
        "trial " + std::to_string(trial) + " capacity " +
        std::to_string(config.replay_capacity) + " budget " +
        std::to_string(config.replay_budget_bytes);
    Feat feat(&problem, dataset.SeenTaskIndices(), config);
    for (int iteration = 0; iteration < 5; ++iteration) {
      evictions += feat.RunIteration().replay_evictions;
      for (int slot = 0; slot < feat.num_tasks(); ++slot) {
        const ReplayBuffer& buffer = *feat.task_runtime(slot).buffer;
        std::size_t charged = 0;
        buffer.ForEachStored([&](const Trajectory& trajectory, double) {
          charged += 56 + trajectory.steps.size() * (80 + 2 * m);
        });
        const std::string where = label + " iteration " +
                                  std::to_string(iteration) + " slot " +
                                  std::to_string(slot);
        EXPECT_EQ(buffer.bytes(), charged) << where;
        if (buffer.num_trajectories() > 1) {
          if (config.replay_budget_bytes > 0) {
            EXPECT_LE(buffer.bytes(), config.replay_budget_bytes) << where;
          }
          EXPECT_LE(buffer.num_transitions(), config.replay_capacity)
              << where;
        }
      }
    }
  }
  EXPECT_GT(evictions, 0) << "no capacity or budget bound";
}

// Training under binding budgets at {1, 3, 8} threads reproduces the frozen
// bounded digest: every replay draw, eviction and resident-byte count as
// recorded.
TEST(TrainingGoldenTest, BoundedFeatMatchesGolden) {
  const uint64_t expected =
      golden::ExpectedDigest(golden::kBoundedFeatTraining);
  for (const int num_threads : {1, 3, 8}) {
    const BoundedOutcome outcome = RunBoundedTraining(num_threads);
    long long cache_evictions = 0;
    long long replay_evictions = 0;
    for (const IterationStats& stats : outcome.stats) {
      cache_evictions += stats.cache_evictions;
      replay_evictions += stats.replay_evictions;
    }
    const std::string config = "num_threads=" + std::to_string(num_threads);
    EXPECT_GT(cache_evictions, 0) << "cache budget did not bind, " << config;
    EXPECT_GT(replay_evictions, 0) << "replay budget did not bind, " << config;
    EXPECT_EQ(outcome.digest, expected)
        << golden::DescribeComputed(outcome.digest) << " for bounded Feat "
        << config;
  }
}

struct PopArtOutcome {
  uint64_t digest = 0;
  std::size_t fullest_returns = 0;  // the longest recent-returns deque
};

// PopArt FEAT, configured as PopArtSelector configures it: MemoryDataset,
// DefaultFeatOptions(50, 23), 8 envs, 14 iterations, long enough that a
// task's recent-returns window fills. The digest covers each iteration's
// mean loss, the online parameters and the training-state blob, which holds
// the PopArt statistics and every task's recent returns.
PopArtOutcome RunPopArtTraining(int num_threads) {
  SyntheticDataset dataset = MemoryDataset();
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 19);
  FeatConfig config = DefaultFeatOptions(50, 23).feat;
  config.envs_per_iteration = 8;
  config.num_threads = num_threads;
  config.dqn.use_popart = true;
  config.dqn.net.extra_rescale_layer = true;
  Feat feat(&problem, dataset.SeenTaskIndices(), config);
  golden::Fnv1a64 digest;
  for (int i = 0; i < 14; ++i) digest.Scalar(feat.RunIteration().mean_loss);
  for (float parameter : feat.agent().online_net().SerializeParams()) {
    digest.Scalar(parameter);
  }
  ByteWriter blob;
  feat.SerializeTrainingState(&blob);
  digest.Bytes(blob.data().data(), blob.data().size());
  PopArtOutcome outcome;
  outcome.digest = digest.value();
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    outcome.fullest_returns =
        std::max(outcome.fullest_returns,
                 feat.task_runtime(slot).recent_returns.size());
  }
  return outcome;
}

// PopArt training at {1, 3, 8} threads reproduces the frozen digest: the
// PopArt EMA rate and the recent-returns window are pinned here.
TEST(TrainingGoldenTest, PopArtFeatMatchesGolden) {
  const uint64_t expected =
      golden::ExpectedDigest(golden::kPopArtFeatTraining);
  for (const int num_threads : {1, 3, 8}) {
    const PopArtOutcome outcome = RunPopArtTraining(num_threads);
    const std::string config = "num_threads=" + std::to_string(num_threads);
    EXPECT_EQ(outcome.fullest_returns, 32u)
        << "no recent-returns window filled, " << config;
    EXPECT_EQ(outcome.digest, expected)
        << golden::DescribeComputed(outcome.digest) << " for PopArt Feat "
        << config;
  }
}

}  // namespace
}  // namespace pafeat
