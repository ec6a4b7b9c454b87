// Concurrency edge cases, sized to be meaningful under ThreadSanitizer
// (scripts/check.sh tsan): ThreadPool shutdown racing worker re-park,
// tasks that throw, pool growth racing active jobs, a multi-threaded
// SubsetEvaluator stampede over a shared mask working set, and the reward
// cache's stampede under a binding budget.

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/defaults.h"
#include "core/feat.h"
#include "nn/dueling_net.h"
#include "serve/selection_server.h"
#include "data/feature_mask.h"
#include "data/synthetic.h"
#include "memory/reward_cache.h"
#include "ml/masked_dnn.h"
#include "ml/subset_evaluator.h"
#include "tensor/matrix.h"

namespace pafeat {
namespace {

// The destructor must cleanly stop workers no matter where they are in the
// job lifecycle. Creating, exercising, and destroying pools back-to-back
// stresses the narrow window between a worker's final job_runners_
// decrement and its re-park on the condition variable — the handshake a
// shutdown races against.
TEST(ConcurrencyStressTest, PoolDestructionWhileWorkersStillUnwinding) {
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> executed{0};
    {
      ThreadPool pool(3);
      pool.ParallelFor(64, 4, [&](int) {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
      // Destructor runs immediately: workers may still be between "finished
      // my share" and "parked again".
    }
    EXPECT_EQ(executed.load(), 64);
  }
}

TEST(ConcurrencyStressTest, PoolDestructionWithoutEverRunningAJob) {
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(2);  // workers park and are immediately shut down
  }
  ThreadPool empty(0);  // zero workers: nothing to join
  int ran = 0;
  empty.ParallelFor(4, 8, [&](int) { ++ran; });
  EXPECT_EQ(ran, 4);
}

TEST(ConcurrencyStressTest, TaskExceptionPropagatesToSubmitter) {
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.ParallelFor(32, 4,
                       [&](int i) {
                         executed.fetch_add(1, std::memory_order_relaxed);
                         if (i == 7) throw std::runtime_error("task failed");
                       }),
      std::runtime_error);
  // A throwing task must not strand the job: every index still ran and the
  // submitter was released.
  EXPECT_EQ(executed.load(), 32);
}

TEST(ConcurrencyStressTest, PoolSurvivesThrowingTasksAndStaysUsable) {
  ThreadPool pool(2);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(pool.ParallelFor(16, 3,
                                  [&](int i) {
                                    if (i % 5 == 0) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
                 std::runtime_error);
    std::atomic<int> clean{0};
    pool.ParallelFor(16, 3, [&](int) {
      clean.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(clean.load(), 16);  // pool state fully reset after the throw
  }
}

TEST(ConcurrencyStressTest, InlinePathPropagatesExceptionsToo) {
  ThreadPool pool(2);
  // max_parallelism 1 runs inline on the caller; the exception surfaces on
  // the same code path the pooled case promises (submitting thread).
  EXPECT_THROW(pool.ParallelFor(8, 1,
                                [](int i) {
                                  if (i == 3) throw std::runtime_error("x");
                                }),
               std::runtime_error);
}

// EnsureGlobalWorkers grows the pool while other threads size jobs off
// num_workers(): the count must be readable without taking the submit lock
// (this is the exact pair TSan flagged before num_workers_ became atomic).
TEST(ConcurrencyStressTest, GlobalPoolGrowthRacesActiveJobs) {
  ThreadPool::EnsureGlobalWorkers(2);
  std::atomic<bool> stop{false};
  std::atomic<long long> total{0};
  // Submissions must come from outside the pool so EnsureGlobalWorkers can
  // race an in-flight ParallelFor.
  // lint: allow(raw-thread): racing submitter must be an unmanaged thread
  std::thread submitter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ThreadPool::Global()->ParallelFor(32, 4, [&](int) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  for (int target = 2; target <= 6; ++target) {
    ThreadPool::EnsureGlobalWorkers(target);
    std::this_thread::yield();
  }
  // On a loaded host the submitter may not have been scheduled yet; let it
  // finish at least one job before stopping it.
  while (total.load() == 0) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  submitter.join();
  EXPECT_GE(ThreadPool::Global()->num_workers(), 6);
  EXPECT_GT(total.load(), 0);
}

MaskedDnnClassifier FitStressClassifier(Matrix* features,
                                        std::vector<float>* labels) {
  Rng rng(0x57a3);
  *features = Matrix::RandomNormal(64, 12, 1.0f, &rng);
  labels->resize(64);
  for (int r = 0; r < 64; ++r) {
    (*labels)[r] =
        features->At(r, 1) + features->At(r, 7) > 0.0f ? 1.0f : 0.0f;
  }
  std::vector<int> rows(64);
  for (int r = 0; r < 64; ++r) rows[r] = r;
  MaskedDnnConfig config;
  config.epochs = 2;
  MaskedDnnClassifier classifier(config);
  classifier.Fit(*features, *labels, rows, &rng);
  return classifier;
}

// Many threads hammer one evaluator with an overlapping working set of
// masks, each thread in its own deterministic order. Every mask must be
// computed exactly once (stampede dedup), every thread must read identical
// rewards, and under TSan the cache/in-flight bookkeeping must be
// race-free.
TEST(ConcurrencyStressTest, SubsetEvaluatorStampedeStress) {
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier =
      FitStressClassifier(&features, &labels);
  std::vector<int> eval_rows;
  std::vector<float> eval_labels;
  for (int r = 0; r < features.rows(); r += 2) {
    eval_rows.push_back(r);
    eval_labels.push_back(labels[r]);
  }
  const Matrix block = features.SelectRows(eval_rows);
  const SubsetEvaluator evaluator(&block, eval_labels, &classifier);

  const int m = features.cols();
  constexpr int kMasks = 24;
  constexpr int kThreads = 6;
  constexpr int kRounds = 3;  // every thread revisits the set: cache hits
  std::vector<FeatureMask> masks;
  Rng mask_rng(0xbeef);
  for (int i = 0; i < kMasks; ++i) {
    FeatureMask mask(m, 0);
    for (int c = 0; c < m; ++c) mask[c] = mask_rng.Bernoulli(0.4) ? 1 : 0;
    mask[i % m] = 1;  // never empty
    masks.push_back(mask);
  }

  std::vector<std::vector<double>> rewards(
      kThreads, std::vector<double>(kMasks, 0.0));
  std::atomic<int> ready{0};
  // lint: allow(raw-thread): stampede stress needs unmanaged racing threads
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Per-thread visit order, deterministic per seed.
      Rng order_rng(1000 + t);
      std::vector<int> order(kMasks);
      for (int i = 0; i < kMasks; ++i) order[i] = i;
      order_rng.Shuffle(&order);
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        for (int idx : order) {
          const double r = evaluator.Reward(masks[idx]);
          if (round == 0) {
            rewards[t][idx] = r;
          } else {
            ASSERT_EQ(rewards[t][idx], r);  // cached value is stable
          }
        }
      }
    });
  }
  // lint: allow(raw-thread): joining the stress threads spawned above
  for (std::thread& thread : threads) thread.join();

  // Dedup guarantee: masks may repeat in the working set, so count unique
  // packed keys rather than kMasks.
  std::vector<PackedMask> unique_keys;
  for (const FeatureMask& mask : masks) {
    const PackedMask key = PackMask(mask);
    bool seen = false;
    for (const PackedMask& existing : unique_keys) {
      if (existing == key) seen = true;
    }
    if (!seen) unique_keys.push_back(key);
  }
  EXPECT_EQ(evaluator.cache_misses(),
            static_cast<long long>(unique_keys.size()));
  EXPECT_EQ(evaluator.cache_hits() + evaluator.cache_misses(),
            static_cast<long long>(kThreads) * kRounds * kMasks);

  // Cross-thread agreement, and agreement with a fresh uncached evaluation.
  for (int idx = 0; idx < kMasks; ++idx) {
    const double expected = evaluator.EvaluateUncached(masks[idx]);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(rewards[t][idx], expected)
          << "thread " << t << " mask " << idx;
    }
  }
}

// Eight executors claim, publish and hit overlapping seeded sets of 16-word
// keys, one epoch between two barriers, under a budget that binds; the
// epoch closes at each barrier. After every epoch the cache must show what a
// one-thread replay of the same probe lists shows — the export, the totals
// and the drained window — and each distinct key misses once per residency,
// with every stampede waiter counted as a hit.
TEST(ConcurrencyStressTest, CompactCacheStampedeUnderBudget) {
  constexpr int kThreads = 8;
  constexpr int kEpochs = 12;
  constexpr int kWords = 16;
  constexpr int kPool = 160;
  constexpr int kWindow = 48;
  constexpr int kProbes = 40;  // per executor and epoch
  const std::size_t budget = 32 * (2 * sizeof(uint64_t) * kWords + 96);
  Rng rng(0xc0ac);
  std::vector<PackedMask> keys(kPool, PackedMask(kWords));
  for (PackedMask& key : keys) {
    for (uint64_t& word : key) word = rng.Next();
  }
  const auto value_of = [](const PackedMask& key) {
    return static_cast<double>(key[0] >> 11) * 0x1.0p-53;
  };
  // probes[epoch][executor]: key indices from a window that slides by 8
  // keys an epoch, so epochs share keys and executors collide.
  std::vector<std::vector<std::vector<int>>> probes(
      kEpochs, std::vector<std::vector<int>>(kThreads));
  for (int e = 0; e < kEpochs; ++e) {
    for (std::vector<int>& list : probes[e]) {
      for (int p = 0; p < kProbes; ++p) {
        list.push_back((8 * e + rng.UniformInt(kWindow)) % kPool);
      }
    }
  }

  TieredRewardCache shared(budget, kWords);
  TieredRewardCache serial(budget, kWords);
  shared.SetManualEpochControl(true);
  serial.SetManualEpochControl(true);
  ThreadPool executors(kThreads - 1);
  std::atomic<int> wrong_values{0};
  const auto probe = [&](TieredRewardCache* cache, const PackedMask& key) {
    double value = 0.0;
    if (cache->AcquireOrWait(key, &value) ==
        TieredRewardCache::Probe::kClaimed) {
      std::this_thread::yield();  // widen the window other executors wait in
      cache->Publish(key, value_of(key));
    } else if (value != value_of(key)) {
      wrong_values.fetch_add(1);
    }
  };
  for (int e = 0; e < kEpochs; ++e) {
    std::vector<std::pair<PackedMask, double>> resident;
    serial.ExportEntries(&resident);
    std::set<PackedMask> before;
    for (const auto& entry : resident) before.insert(entry.first);
    std::set<PackedMask> fresh;
    for (const std::vector<int>& list : probes[e]) {
      for (int k : list) {
        if (before.count(keys[k]) == 0) fresh.insert(keys[k]);
      }
    }

    executors.ParallelFor(kThreads, kThreads, [&](int t) {
      for (int k : probes[e][t]) probe(&shared, keys[k]);
    });
    for (const std::vector<int>& list : probes[e]) {
      for (int k : list) probe(&serial, keys[k]);
    }
    shared.AdvanceEpoch();
    serial.AdvanceEpoch();

    const MemoryTraffic got = shared.TakeTraffic();
    const MemoryTraffic want = serial.TakeTraffic();
    EXPECT_EQ(got.misses, static_cast<long long>(fresh.size())) << e;
    EXPECT_EQ(got.hits, kThreads * kProbes - got.misses) << e;
    EXPECT_EQ(got.misses, want.misses) << e;
    EXPECT_EQ(got.hits, want.hits) << e;
    EXPECT_EQ(got.evictions, want.evictions) << e;
    EXPECT_EQ(shared.total_hits(), serial.total_hits()) << e;
    EXPECT_EQ(shared.total_misses(), serial.total_misses()) << e;
    EXPECT_EQ(shared.total_evictions(), serial.total_evictions()) << e;
    EXPECT_EQ(shared.bytes(), serial.bytes()) << e;
    std::vector<std::pair<PackedMask, double>> got_entries, want_entries;
    shared.ExportEntries(&got_entries);
    serial.ExportEntries(&want_entries);
    EXPECT_EQ(got_entries, want_entries) << "epoch " << e;
  }
  EXPECT_GT(shared.total_evictions(), 0);
  EXPECT_EQ(wrong_values.load(), 0);
}

// The collector plane's rendezvous under contention: RunIteration deals
// the 8 episodes round-robin to min(num_threads, 8) collectors, each
// running its own step-synchronous loop (core/feat.cc CollectShard) on a
// pool executor — batched forward passes through the shared agent, then
// environment steps — while all of them race on the shared reward-cache
// locks. Per-iteration results, parameters and buffers must stay
// bit-identical to the one-thread run through the stress
// (TrainingGoldenTest pins the full field-by-field digests).
void ExpectCollectorsMatchOneThread(int num_threads) {
  SyntheticSpec spec;
  spec.num_instances = 240;
  spec.num_features = 12;
  spec.num_seen_tasks = 3;
  spec.num_unseen_tasks = 1;
  spec.seed = 29;
  SyntheticDataset dataset = GenerateSynthetic(spec);
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 31);

  FeatConfig base = DefaultFeatOptions(60, 29).feat;
  base.envs_per_iteration = 8;  // wider batches than the small-test default
  base.max_feature_ratio = 0.5;

  FeatConfig serial_config = base;
  serial_config.num_threads = 1;
  FeatConfig pooled_config = base;
  pooled_config.num_threads = num_threads;

  Feat serial(&problem, dataset.SeenTaskIndices(), serial_config);
  Feat pooled(&problem, dataset.SeenTaskIndices(), pooled_config);
  for (int iteration = 0; iteration < 6; ++iteration) {
    const IterationStats serial_stats = serial.RunIteration();
    const IterationStats pooled_stats = pooled.RunIteration();
    ASSERT_EQ(serial_stats.mean_loss, pooled_stats.mean_loss)
        << "iteration " << iteration << " num_threads " << num_threads;
    ASSERT_EQ(serial_stats.episodes, pooled_stats.episodes);
    ASSERT_EQ(serial_stats.task_probabilities,
              pooled_stats.task_probabilities);
  }
  EXPECT_EQ(serial.agent().online_net().SerializeParams(),
            pooled.agent().online_net().SerializeParams());
  for (int slot = 0; slot < serial.num_tasks(); ++slot) {
    EXPECT_EQ(serial.task_runtime(slot).buffer->num_transitions(),
              pooled.task_runtime(slot).buffer->num_transitions())
        << "slot " << slot;
  }
}

// One episode per collector: 8 collectors race, each batch is one row.
TEST(ConcurrencyStressTest, BatchedCollectionRendezvousStress) {
  ExpectCollectorsMatchOneThread(8);
}

// Unequal shares: 3 collectors get 3/3/2 episodes, so each batches several
// rows per step and the collectors finish their loops at different steps.
TEST(ConcurrencyStressTest, ShardedCollectionRendezvousStress) {
  ExpectCollectorsMatchOneThread(3);
}

AgentCheckpoint MakeServingStressCheckpoint(int m, uint64_t seed) {
  AgentCheckpoint checkpoint;
  checkpoint.net_config.input_dim = 2 * m + 3;
  checkpoint.net_config.num_actions = 2;
  checkpoint.net_config.trunk_hidden = {24, 24};
  checkpoint.max_feature_ratio = 0.5;
  Rng rng(seed);
  DuelingNet net(checkpoint.net_config, &rng);
  checkpoint.parameters = net.SerializeParams();
  return checkpoint;
}

// The serving plane's full rendezvous under contention: many tenants
// hammer Select while a publisher hot-swaps checkpoints out from under
// them. Every response must carry a subset bit-identical to the standalone
// scan of the version it reports — a swap may move a request between
// generations but may never mix them — and the bookkeeping must balance.
// Under TSan this exercises every serving-plane handshake at once:
// admission vs the loop, retirement vs blocked tenants, publish vs drain.
TEST(ConcurrencyStressTest, ServingRendezvousStress) {
  constexpr int kM = 12;
  constexpr int kReprs = 8;
  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 40;
  constexpr int kPublishes = 5;

  std::vector<AgentCheckpoint> generations;
  for (int v = 0; v <= kPublishes; ++v) {
    generations.push_back(MakeServingStressCheckpoint(kM, 0x5e41 + v));
  }
  std::vector<std::vector<float>> reprs;
  Rng repr_rng(0x7777);
  for (int i = 0; i < kReprs; ++i) {
    std::vector<float> repr(kM);
    for (float& value : repr) {
      value = static_cast<float>(repr_rng.Uniform(-1.0, 1.0));
    }
    reprs.push_back(std::move(repr));
  }
  // expected[v][i]: the standalone subset for repr i under generation v
  // (version v + 1 — the server numbers its initial bundle 1).
  std::vector<std::vector<FeatureMask>> expected;
  for (const AgentCheckpoint& checkpoint : generations) {
    const CheckpointedSelector standalone(checkpoint);
    std::vector<FeatureMask> row;
    for (const std::vector<float>& repr : reprs) {
      row.push_back(standalone.SelectForRepresentation(repr));
    }
    expected.push_back(std::move(row));
  }

  ServerConfig config;
  config.max_batch = 4;  // force queue/coalesce churn under load
  SelectionServer server(generations[0], config);

  std::atomic<int> failures{0};
  // lint: allow(raw-thread): tenants and publisher must race unmanaged
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const int idx = (c * kRequestsPerClient + i) % kReprs;
        const SelectionResponse response = server.Select(reprs[idx]);
        if (response.status != AdmissionStatus::kOk) {
          failures.fetch_add(1);
          continue;
        }
        const uint64_t generation = response.stats.net_version - 1;
        if (generation >= expected.size() ||
            response.mask != expected[generation][idx]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // lint: allow(raw-thread): the publisher races the tenants above
  std::thread publisher([&] {
    for (int v = 1; v <= kPublishes; ++v) {
      ASSERT_TRUE(server.PublishCheckpoint(generations[v]));
      std::this_thread::yield();
    }
  });
  // lint: allow(raw-thread): joining the stress threads spawned above
  for (std::thread& client : clients) client.join();
  publisher.join();

  EXPECT_EQ(failures.load(), 0);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed,
            static_cast<uint64_t>(kClients) * kRequestsPerClient);
  EXPECT_EQ(stats.swaps_applied, static_cast<uint64_t>(kPublishes));
  EXPECT_EQ(stats.net_version, static_cast<uint64_t>(kPublishes) + 1);
  EXPECT_EQ(stats.queued_now, 0);
  EXPECT_EQ(stats.live_now, 0);
}

// Shutdown racing Select: tenants hammer the server while another thread
// shuts it down partway through. Every response is either kOk with the
// standalone scan's subset or kShutdown with an empty mask, a tenant that
// has seen kShutdown never sees anything else, every attempt lands in
// exactly one counter, nothing is left queued or live, and every thread
// returns (a hang fails the test by its timeout).
TEST(ConcurrencyStressTest, ShutdownRacesSelect) {
  constexpr int kM = 12;
  constexpr int kReprs = 8;
  constexpr int kClients = 6;
  constexpr int kShutdownAfter = 60;   // completed requests before shutdown
  constexpr int kAfterShutdown = 3;    // requests each tenant sends after

  const AgentCheckpoint checkpoint = MakeServingStressCheckpoint(kM, 0x5d0);
  std::vector<std::vector<float>> reprs;
  std::vector<FeatureMask> expected;
  const CheckpointedSelector standalone(checkpoint);
  Rng repr_rng(0x5d1);
  for (int i = 0; i < kReprs; ++i) {
    std::vector<float> repr(kM);
    for (float& value : repr) {
      value = static_cast<float>(repr_rng.Uniform(-1.0, 1.0));
    }
    expected.push_back(standalone.SelectForRepresentation(repr));
    reprs.push_back(std::move(repr));
  }

  ServerConfig config;
  config.max_batch = 4;
  SelectionServer server(checkpoint, config);

  std::atomic<int> attempts{0};
  std::atomic<int> ok{0};
  std::atomic<int> shut_out{0};
  std::atomic<int> failures{0};
  // lint: allow(raw-thread): tenants and the shutdown must race unmanaged
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each tenant runs until the shutdown reaches it, then a few more.
      bool seen_shutdown = false;
      int after = 0;
      for (int i = 0; !seen_shutdown || after++ < kAfterShutdown; ++i) {
        const int idx = (c + i) % kReprs;
        attempts.fetch_add(1);
        const SelectionResponse response = server.Select(reprs[idx]);
        if (response.status == AdmissionStatus::kOk && !seen_shutdown &&
            response.mask == expected[idx]) {
          ok.fetch_add(1);
        } else if (response.status == AdmissionStatus::kShutdown &&
                   response.mask.empty()) {
          seen_shutdown = true;
          shut_out.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }
  // lint: allow(raw-thread): shuts the server down under the tenants above
  std::thread closer([&] {
    while (ok.load() < kShutdownAfter && shut_out.load() == 0 &&
           failures.load() == 0) {
      std::this_thread::yield();
    }
    server.Shutdown();
    server.Shutdown();  // idempotent
  });
  // lint: allow(raw-thread): joining the stress threads spawned above
  for (std::thread& client : clients) client.join();
  closer.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(ok.load(), kShutdownAfter);
  EXPECT_GE(shut_out.load(), kClients * (kAfterShutdown + 1));
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(ok.load()));
  EXPECT_EQ(stats.rejected_shutdown, static_cast<uint64_t>(shut_out.load()));
  EXPECT_EQ(stats.completed + stats.rejected_shutdown +
                stats.rejected_queue_full,
            static_cast<uint64_t>(attempts.load()));
  EXPECT_EQ(stats.rejected_bad_request, 0u);
  EXPECT_EQ(stats.queued_now, 0);
  EXPECT_EQ(stats.live_now, 0);
}

}  // namespace
}  // namespace pafeat
