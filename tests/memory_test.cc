// The bounded experience-memory plane (DESIGN.md "Bounded memory plane"):
// the tiered reward cache's budget/eviction/telemetry contracts, the replay
// buffer's budget eviction order, and the end-to-end determinism claim —
// training under a forced-eviction budget reproduces a frozen digest and is
// bit-identical at any thread count.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
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

Trajectory MakeTrajectory(int transitions, double episode_return,
                          int num_features = 6) {
  Trajectory trajectory;
  trajectory.episode_return = episode_return;
  for (int t = 0; t < transitions; ++t) {
    Transition transition;
    transition.state.mask.assign(num_features, 0);
    transition.state.position = t;
    transition.next_state.mask.assign(num_features, 1);
    transition.next_state.position = t + 1;
    transition.action = t % 2;
    transition.reward = static_cast<float>(episode_return / transitions);
    transition.done = t + 1 == transitions;
    trajectory.transitions.push_back(std::move(transition));
  }
  return trajectory;
}

// Text image of a buffer in insertion order: priority, length and return
// of every stored trajectory.
std::string DumpBuffer(const ReplayBuffer& buffer) {
  std::ostringstream out;
  buffer.ForEachStored([&](const Trajectory& trajectory, double priority) {
    out << priority << ':' << trajectory.transitions.size() << ':'
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
          << trajectory.transitions.size() << '\n';
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
// bytes (then its task probabilities when asked); the online parameters;
// every stored trajectory with its priority in ForEachStored order.
uint64_t DigestBounded(const Feat& feat,
                       const std::vector<IterationStats>& stats,
                       bool with_task_probabilities = false) {
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
    if (with_task_probabilities) {
      for (double p : iteration.task_probabilities) digest.Scalar(p);
    }
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

// SITP (arXiv 2301.00691) as the scheduler default: MemoryDataset,
// DefaultFeatOptions(50, 23), 6 envs, 6 iterations, unbounded memory.
BoundedOutcome RunSitpTraining(int num_threads) {
  SyntheticDataset dataset = MemoryDataset();
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 19);
  FeatConfig config = DefaultFeatOptions(50, 23).feat;
  config.envs_per_iteration = 6;
  config.num_threads = num_threads;
  config.success_prioritized_scheduling = true;
  Feat feat(&problem, dataset.SeenTaskIndices(), config);
  BoundedOutcome outcome;
  for (int i = 0; i < 6; ++i) {
    outcome.stats.push_back(feat.RunIteration());
  }
  outcome.digest =
      DigestBounded(feat, outcome.stats, /*with_task_probabilities=*/true);
  return outcome;
}

// SITP training at {1, 3, 8} threads reproduces the frozen digest,
// scheduler probabilities included, and the scheduler emits a proper
// distribution every iteration.
TEST(TrainingGoldenTest, SitpFeatMatchesGolden) {
  const uint64_t expected = golden::ExpectedDigest(golden::kSitpFeatTraining);
  for (const int num_threads : {1, 3, 8}) {
    const BoundedOutcome outcome = RunSitpTraining(num_threads);
    for (const IterationStats& stats : outcome.stats) {
      double sum = 0.0;
      for (double p : stats.task_probabilities) {
        EXPECT_GE(p, 0.0);
        sum += p;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
    EXPECT_EQ(outcome.digest, expected)
        << golden::DescribeComputed(outcome.digest)
        << " for SITP Feat num_threads=" << num_threads;
  }
}

}  // namespace
}  // namespace pafeat
