#ifndef PAFEAT_CORE_FEAT_H_
#define PAFEAT_CORE_FEAT_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/greedy_policy.h"
#include "core/problem.h"
#include "memory/persistence.h"
#include "rl/dqn_agent.h"
#include "rl/fs_env.h"
#include "rl/replay_buffer.h"

namespace pafeat {

// Configuration of the FEAT multi-task DRL framework (Algorithm 1).
struct FeatConfig {
  int envs_per_iteration = 4;    // N parallel resources per iteration
  int updates_per_task = 1;      // K optimization passes per task
  int batch_size = 32;           // M
  double max_feature_ratio = 0.5;  // mfr (Algorithm 1 line 10)
  RewardMode reward_mode = RewardMode::kDelta;
  int replay_capacity = 4096;    // transitions per task buffer B^k
  // Executors for the buffer-filling phase (the paper's N parallel
  // environments / "Resources"), and the only parallelism setting. The
  // iteration's planned episodes are dealt round-robin (plan i to collector
  // i mod C) to C = min(num_threads, envs_per_iteration) collectors, each
  // running its own step-synchronous loop (DESIGN.md "Batched inference
  // plane") on one executor of the persistent process-wide ThreadPool; one
  // collector runs inline on the iterating thread. The learner's large
  // GEMMs split row panels over the same pool. The Feat constructor grows
  // the pool to at least min(num_threads, max(envs_per_iteration, seen
  // tasks x updates_per_task)) - 1 workers (the iterating thread
  // participates). Results are bit-identical for a fixed seed at any thread
  // count: episodes are planned serially on the root stream, every draw
  // during collection comes from an episode's own stream, batched Q rows
  // match at any batch composition by kernel construction, and results are
  // committed in plan order.
  int num_threads = 1;
  // Byte budget of every task buffer B^k, in charged bytes
  // (ReplayBuffer::bytes; DESIGN.md "Bounded memory plane"); 0 = unlimited.
  // Over budget, the lowest-return trajectories are evicted first.
  std::size_t replay_budget_bytes = 0;
  DqnConfig dqn;                 // dqn.net.input_dim is filled automatically
  uint64_t seed = 7;
};

// Per-seen-task training state: the environment, the replay buffer B^k and
// rolling statistics. Owned by Feat; hooks receive const references.
struct SeenTaskRuntime {
  int label_index = 0;
  const TaskContext* context = nullptr;
  std::unique_ptr<FeatureSelectionEnv> env;
  std::unique_ptr<ReplayBuffer> buffer;
  // The task's latest episode returns, oldest first: at most
  // kRecentReturnsWindow (Feat::RunIteration).
  std::deque<double> recent_returns;

  double AverageRecentReturn() const;
  // Feature subsets mapped from the most recent trajectories (ITS Eqn 4a).
  std::vector<FeatureMask> RecentMasks(int count) const;
};

// Hook: allocates the per-task selection probabilities each iteration
// (Algorithm 1 line 5). The default is the uniform choice of plain FEAT;
// PA-FEAT installs the ITS.
class TaskScheduler {
 public:
  virtual ~TaskScheduler() = default;
  // Called once per iteration (skipped in focus mode).
  virtual std::vector<double> Probabilities(
      const std::vector<SeenTaskRuntime>& tasks) = 0;
};

class UniformScheduler : public TaskScheduler {
 public:
  std::vector<double> Probabilities(
      const std::vector<SeenTaskRuntime>& tasks) override;
};

// ITS as a scheduler hook (paper §III-C): each task's progress over its
// `recent_n` most recent trajectories, allocated by ScheduleProbabilities at
// its default temperature and floor.
class ItsScheduler : public TaskScheduler {
 public:
  explicit ItsScheduler(int recent_n) : recent_n_(recent_n) {}
  std::vector<double> Probabilities(
      const std::vector<SeenTaskRuntime>& tasks) override;

 private:
  int recent_n_;
};

// Hook: customizes the initial state of an episode (Algorithm 1 line 6 /
// §III-D). Returning nullopt keeps the default initial state.
struct EpisodeStart {
  EnvState state;
  std::vector<int> prefix;    // decisions from the root leading to `state`
  bool random_policy = false; // roll out with a random policy (Go-Explore,
                              // and the w/o-PE ablation)
};

class InitialStateProvider {
 public:
  virtual ~InitialStateProvider() = default;
  virtual std::optional<EpisodeStart> Propose(int task_slot,
                                              const SeenTaskRuntime& task,
                                              Rng* rng) = 0;
  // Called after every episode with the full decision path from the root.
  virtual void OnTrajectory(int task_slot, const std::vector<int>& actions,
                            double episode_return) = 0;
};

// Hook: transforms the reward stored for training (Reward Randomization).
// The untransformed reward still drives episode returns, the E-Tree and the
// ITS, so diagnostics always see true subset performance.
//
// BeginEpisode runs on the scheduling thread and returns an episode context
// value handed back to every Shape call of that episode; Shape must be
// thread-safe (episodes run concurrently under num_threads > 1).
class RewardShaper {
 public:
  virtual ~RewardShaper() = default;
  virtual double BeginEpisode(int task_slot, Rng* rng) = 0;
  virtual double Shape(double reward, int task_slot, double context,
                       Rng* rng) = 0;
};

struct IterationStats {
  double seconds = 0.0;
  double mean_loss = 0.0;
  int episodes = 0;
  std::vector<double> task_probabilities;
  // Reward-cache traffic across all seen tasks during this iteration —
  // drained windows, so every lookup (including a stampede waiter resolving
  // after an iteration rollover) is counted in exactly one iteration.
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long cache_evictions = 0;
  // Bytes at the end of the iteration, summed over seen tasks: the reward
  // caches' resident bytes and the replay buffers' charged bytes
  // (ReplayBuffer::bytes, an upper bound on what they hold).
  std::size_t cache_bytes = 0;
  long long replay_evictions = 0;
  std::size_t replay_bytes = 0;
};

// Aggregate over a multi-iteration training run (Feat::Train): the
// per-iteration IterationStats folded together so long runs are observable
// without collecting every RunIteration result by hand.
struct TrainingStats {
  int iterations = 0;
  double total_seconds = 0.0;
  double mean_iteration_seconds = 0.0;
  int episodes = 0;           // committed episodes across all iterations
  double mean_loss = 0.0;     // unweighted mean of per-iteration mean losses
  long long cache_hits = 0;   // summed reward-cache deltas
  long long cache_misses = 0;
  long long cache_evictions = 0;
  long long replay_evictions = 0;
  // High-water marks of the end-of-iteration cache and replay bytes.
  std::size_t peak_cache_bytes = 0;
  std::size_t peak_replay_bytes = 0;

  // Fraction of reward-cache lookups served from cache (0 with no traffic).
  double CacheHitRate() const {
    const long long lookups = cache_hits + cache_misses;
    return lookups > 0 ? static_cast<double>(cache_hits) / lookups : 0.0;
  }
};

// The FEAT framework (paper §III-B, Algorithm 1): one global Dueling-DQN
// agent trained from per-task replay buffers filled by episodes on the seen
// tasks' environments. PA-FEAT and the FEAT-based baselines (PopArt,
// Go-Explore, RR) are this class with different hooks installed.
class Feat {
 public:
  Feat(FsProblem* problem, std::vector<int> seen_label_indices,
       const FeatConfig& config);

  Feat(const Feat&) = delete;
  Feat& operator=(const Feat&) = delete;

  void SetScheduler(std::unique_ptr<TaskScheduler> scheduler);
  void SetInitialStateProvider(std::unique_ptr<InitialStateProvider> provider);
  void SetRewardShaper(std::unique_ptr<RewardShaper> shaper);

  // One Algorithm-1 iteration: a buffer-filling phase of N episodes followed
  // by the parameter-updating phase.
  IterationStats RunIteration();

  // Runs `iterations` iterations and returns their aggregated statistics;
  // mean_iteration_seconds is Table II's "Iter".
  TrainingStats Train(int iterations);

  // Fast feature selection for an unseen task (Algorithm 1 lines 22-24):
  // computes the task representation and executes one greedy episode. The
  // wall time of exactly this path is the paper's "execution time".
  FeatureMask SelectForTask(int label_index, double* execution_seconds);

  // Greedy episode for an already-computed representation (no reward calls).
  FeatureMask SelectForRepresentation(const std::vector<float>& repr) const;

  // Greedy episodes for several representations at once: the per-position Q
  // queries of all tasks are coalesced into one batched forward pass
  // (lock-step scan). Result i is bit-identical to
  // SelectForRepresentation(reprs[i]) — the multi-task serving path.
  std::vector<FeatureMask> SelectForRepresentations(
      const std::vector<std::vector<float>>& reprs) const;

  // Adds a task (typically unseen, now labeled) to the training set for the
  // further-training mode of §IV-D. Returns its runtime slot.
  int AddTask(int label_index);

  // The runtime slot already holding `label_index`, or -1 — so a warm
  // resume's FurtherTrain reuses the restored slot instead of duplicating
  // the task.
  int FindTask(int label_index) const;

  // Warm-resume persistence (checkpoint v3, DESIGN.md "Bounded memory
  // plane"): everything RunIteration depends on beyond the online
  // parameters — the root RNG stream, the iteration index, the agent's
  // target/optimizer/PopArt state, and per task the recent returns, the
  // replay trajectories with their priorities, and the reward-cache
  // contents. Restore requires a freshly constructed Feat over the same
  // problem and task list; it returns false with a reason in `error` on any
  // mismatch. A restored run's RunIteration sequence is bit-identical to
  // the uninterrupted run's.
  void SerializeTrainingState(ByteWriter* out) const;
  bool RestoreTrainingState(ByteReader* in, std::string* error);

  // Focuses all episode sampling on one task slot (the further-training mode
  // interacts only with the unseen task's environment); -1 restores the
  // scheduler. Parameter updates still draw from every non-empty buffer.
  void SetFocusTask(int slot) { focus_slot_ = slot; }

  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  const SeenTaskRuntime& task_runtime(int slot) const { return tasks_[slot]; }
  const DqnAgent& agent() const { return *agent_; }
  DqnAgent& agent() { return *agent_; }
  const FeatConfig& config() const { return config_; }
  FsProblem& problem() { return *problem_; }

 private:
  // One planned unit of the buffer-filling phase.
  struct EpisodePlan {
    int slot = 0;
    std::optional<EpisodeStart> start;
    double shaper_context = 1.0;
    Rng rng{0};
  };

  // Step-synchronous execution of the plans dealt to one collector (plan
  // indices collector, collector + num_collectors, ...): per step, a serial
  // plan-order planning pass (exploration draws), one batched greedy Q pass
  // over every live driver, then each live driver's environment step in
  // plan order. Writes each plan's trajectory and decision path straight
  // into its slot of `trajectories` and `episode_actions`; collectors touch
  // disjoint slots and no other shared mutable state but the locked reward
  // cache.
  void CollectShard(const std::vector<EpisodePlan>& plans, int collector,
                    int num_collectors, std::vector<Trajectory>* trajectories,
                    std::vector<std::vector<int>>* episode_actions);
  // Writes one update's sampled steps of task `slot` into learner_batch_
  // (already shaped to batch_size rows): each step's two observation rows,
  // of its states rebuilt into learner_state_, and its action, reward, done
  // flag and task.
  void FillLearnerBatch(int slot, const std::vector<StepRef>& sampled);

  FsProblem* problem_;
  FeatConfig config_;
  // The training root stream: advanced only on the serial plan/commit path.
  // Parallel code gets Fork()ed child streams by value — pafeat-analyze
  // (rng-escape) rejects any call path from a ParallelFor/Submit body here.
  Rng rng_;  // analyze: root-rng
  std::vector<SeenTaskRuntime> tasks_;
  std::unique_ptr<DqnAgent> agent_;
  std::unique_ptr<TaskScheduler> scheduler_;
  std::unique_ptr<InitialStateProvider> state_provider_;
  std::unique_ptr<RewardShaper> reward_shaper_;
  int focus_slot_ = -1;
  // 0-based index of the next RunIteration call: saved with the training
  // state, and nonzero once this Feat has run, which RestoreTrainingState
  // refuses.
  uint64_t iteration_index_ = 0;
  // Running replay-eviction total at the end of the previous iteration
  // (buffers only expose running counters; cache traffic drains windows).
  long long prev_replay_evictions_ = 0;
  // The learner's batch, refilled before every gradient step, and the
  // scratch state each sampled step is rebuilt into.
  LearnerBatch learner_batch_;
  EnvState learner_state_;
};

}  // namespace pafeat

#endif  // PAFEAT_CORE_FEAT_H_
