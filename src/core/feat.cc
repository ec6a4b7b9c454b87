#include "core/feat.h"

#include <algorithm>

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/greedy_policy.h"
#include "core/its.h"
#include "core/sitp.h"
#include "nn/workspace.h"
#include "rl/episode_driver.h"

namespace pafeat {

double SeenTaskRuntime::AverageRecentReturn() const {
  if (recent_returns.empty()) return 0.0;
  double total = 0.0;
  for (double r : recent_returns) total += r;
  return total / recent_returns.size();
}

std::vector<FeatureMask> SeenTaskRuntime::RecentMasks(int count) const {
  std::vector<FeatureMask> masks;
  for (const Trajectory* trajectory : buffer->RecentTrajectories(count)) {
    masks.push_back(trajectory->FinalMask());
  }
  return masks;
}

std::vector<double> UniformScheduler::Probabilities(
    const std::vector<SeenTaskRuntime>& tasks) {
  return std::vector<double>(tasks.size(), 1.0 / tasks.size());
}

std::vector<double> ItsScheduler::Probabilities(
    const std::vector<SeenTaskRuntime>& tasks) {
  std::vector<TaskProgress> progress;
  progress.reserve(tasks.size());
  for (const SeenTaskRuntime& task : tasks) {
    progress.push_back(ComputeTaskProgress(task.RecentMasks(recent_n_),
                                           *task.context->evaluator,
                                           task.context->full_feature_reward));
  }
  return ScheduleProbabilities(progress, temperature_, min_share_of_uniform_);
}

Feat::Feat(FsProblem* problem, std::vector<int> seen_label_indices,
           const FeatConfig& config)
    : problem_(problem), config_(config), rng_(config.seed) {
  PF_CHECK(problem != nullptr);
  PF_CHECK(!seen_label_indices.empty());

  for (int label_index : seen_label_indices) AddTask(label_index);

  // Collection and batch materialization share the persistent process-wide
  // pool (no thread spawn/join per iteration). An iteration runs at most
  // min(num_threads, envs_per_iteration) collectors and min(num_threads,
  // tasks x updates_per_task) materialization tasks, so the pool grows to
  // the larger of the two executor counts and no further (the iterating
  // thread is one executor).
  const long long usable_executors = std::min<long long>(
      config_.num_threads,
      std::max<long long>(config_.envs_per_iteration,
                          static_cast<long long>(num_tasks()) *
                              config_.updates_per_task));
  if (usable_executors > 1) {
    ThreadPool::EnsureGlobalWorkers(static_cast<int>(usable_executors) - 1);
  }

  DqnConfig dqn = config_.dqn;
  dqn.net.input_dim = tasks_.front().env->observation_dim();
  dqn.net.num_actions = kNumActions;
  Rng agent_rng = rng_.Fork(0xa6e17);
  agent_ = std::make_unique<DqnAgent>(dqn, &agent_rng);

  if (config_.success_prioritized_scheduling) {
    scheduler_ = std::make_unique<SitpScheduler>();
  } else {
    scheduler_ = std::make_unique<UniformScheduler>();
  }
}

int Feat::AddTask(int label_index) {
  const TaskContext& context = problem_->Task(label_index);
  SeenTaskRuntime runtime;
  runtime.label_index = label_index;
  runtime.context = &context;
  runtime.env = std::make_unique<FeatureSelectionEnv>(
      context.representation, context.evaluator.get(),
      config_.max_feature_ratio, config_.reward_mode);
  runtime.buffer = std::make_unique<ReplayBuffer>(
      config_.replay_capacity, config_.replay_budget_bytes);
  tasks_.push_back(std::move(runtime));
  // The training loop drives cache epochs from its own serial point, and
  // the per-iteration deltas are drained windows: discard whatever traffic
  // predates this instance (e.g. the full-feature reward computed when the
  // task context was built) so the first iteration only counts its own
  // episodes.
  context.evaluator->SetManualCacheControl(true);
  context.evaluator->TakeCacheTraffic();
  return static_cast<int>(tasks_.size()) - 1;
}

int Feat::FindTask(int label_index) const {
  for (int slot = 0; slot < num_tasks(); ++slot) {
    if (tasks_[slot].label_index == label_index) return slot;
  }
  return -1;
}

void Feat::SetScheduler(std::unique_ptr<TaskScheduler> scheduler) {
  PF_CHECK(scheduler != nullptr);
  scheduler_ = std::move(scheduler);
}

void Feat::SetInitialStateProvider(
    std::unique_ptr<InitialStateProvider> provider) {
  state_provider_ = std::move(provider);
}

void Feat::SetRewardShaper(std::unique_ptr<RewardShaper> shaper) {
  reward_shaper_ = std::move(shaper);
}

void Feat::CollectShard(const std::vector<EpisodePlan>& plans, int collector,
                        int num_collectors,
                        std::vector<Trajectory>* trajectories,
                        std::vector<std::vector<int>>* episode_actions) {
  const int obs_dim = tasks_.front().env->observation_dim();
  // Epsilon is constant across the whole buffer-filling phase — gradient
  // steps (which advance the schedule) only happen in the updating phase —
  // so it is sampled once per phase.
  const float epsilon = agent_->CurrentEpsilon();

  // This collector's plan indices, in plan order.
  std::vector<int> mine;
  for (int i = collector; i < static_cast<int>(plans.size());
       i += num_collectors) {
    mine.push_back(i);
  }
  const int num_episodes = static_cast<int>(mine.size());
  std::vector<EpisodeDriver> drivers;
  drivers.reserve(num_episodes);
  std::vector<EpisodeDriver::RewardShapeFn> shapers(num_episodes);
  for (int i = 0; i < num_episodes; ++i) {
    const EpisodePlan& plan = plans[mine[i]];
    drivers.emplace_back(*tasks_[plan.slot].env, plan.rng);
    if (plan.start.has_value()) {
      drivers.back().StartFrom(plan.start->state, plan.start->prefix,
                               plan.start->random_policy);
    } else {
      drivers.back().StartDefault();
    }
    if (reward_shaper_ != nullptr) {
      RewardShaper* shaper = reward_shaper_.get();
      const int slot = plan.slot;
      const double context = plan.shaper_context;
      shapers[i] = [shaper, slot, context](double raw, Rng* rng) {
        return shaper->Shape(raw, slot, context, rng);
      };
    }
  }

  // Live set in plan order. A driver draws only from its own episode stream
  // and a batched Q row does not depend on its batch mates, so which
  // collector runs an episode, beside which others, never reaches its
  // result.
  std::vector<int> live;
  live.reserve(num_episodes);
  for (int i = 0; i < num_episodes; ++i) {
    if (!drivers[i].done()) live.push_back(i);
  }

  InferenceArena* arena = InferenceArena::ThreadLocal();
  std::vector<int> greedy;
  std::vector<int> greedy_actions;
  while (!live.empty()) {
    // Phase 1 (plan order): exploration decisions for this step.
    greedy.clear();
    for (int index : live) {
      if (drivers[index].PlanStep(epsilon)) greedy.push_back(index);
    }
    // Phase 2: one batched forward pass over every driver that wants a
    // greedy action this step.
    if (!greedy.empty()) {
      ArenaScope scope(arena);
      const int rows = static_cast<int>(greedy.size());
      float* batch =
          arena->Alloc(static_cast<std::size_t>(rows) * obs_dim);
      for (int r = 0; r < rows; ++r) {
        drivers[greedy[r]].WriteObservation(
            batch + static_cast<std::size_t>(r) * obs_dim);
      }
      greedy_actions.resize(rows);
      agent_->ActBatch(rows, batch, greedy_actions.data());
      for (int r = 0; r < rows; ++r) {
        drivers[greedy[r]].SetPlannedAction(greedy_actions[r]);
      }
    }
    // Phase 3 (plan order): environment steps + reward shaping; the reward
    // cache behind the shared evaluator is locked.
    for (int index : live) drivers[index].ApplyAction(shapers[index]);
    // Phase 4: retire finished episodes, preserving plan order.
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](int index) {
                                return drivers[index].done();
                              }),
               live.end());
  }

  for (int i = 0; i < num_episodes; ++i) {
    (*trajectories)[mine[i]] = drivers[i].TakeTrajectory();
    (*episode_actions)[mine[i]] = drivers[i].actions();
  }
}

std::vector<BatchItem> Feat::MaterializeBatch(
    int slot, const std::vector<const Transition*>& sampled) const {
  const SeenTaskRuntime& task = tasks_[slot];
  std::vector<BatchItem> batch;
  batch.reserve(sampled.size());
  for (const Transition* transition : sampled) {
    BatchItem item;
    item.observation = task.env->ObservationFor(transition->state);
    item.action = transition->action;
    item.reward = transition->reward;
    item.next_observation = task.env->ObservationFor(transition->next_state);
    item.done = transition->done;
    item.task_id = slot;
    batch.push_back(std::move(item));
  }
  return batch;
}

IterationStats Feat::RunIteration() {
  WallTimer timer;
  IterationStats stats;

  // --- Buffer Filling Phase (Algorithm 1 lines 4-18) ---
  const int num_episodes = config_.envs_per_iteration;
  if (focus_slot_ >= 0) {
    PF_CHECK_LT(focus_slot_, num_tasks());
    last_probabilities_.assign(tasks_.size(), 0.0);
    last_probabilities_[focus_slot_] = 1.0;
  } else {
    // The scheduler stream forks off a fresh root-seeded generator (not
    // rng_) on the (iteration, 0) path: scheduler draws must not advance
    // the planning stream.
    Rng scheduler_stream = Rng(config_.seed).Fork(iteration_index_, 0);
    scheduler_->BeginIteration(&scheduler_stream);
    last_probabilities_ = scheduler_->Probabilities(tasks_);
  }
  PF_CHECK_EQ(last_probabilities_.size(), tasks_.size());
  stats.task_probabilities = last_probabilities_;

  // Plan all N episodes on this thread (task choice, customized initial
  // state, per-episode RNG, reward-shaper context), then deal them
  // round-robin to the collectors — one per executor, inline when there is
  // one — and commit the results in plan order. This keeps runs
  // bit-identical for a fixed seed at any thread count.
  std::vector<EpisodePlan> plans(num_episodes);
  for (int i = 0; i < num_episodes; ++i) {
    EpisodePlan& plan = plans[i];
    plan.slot = rng_.SampleDiscrete(last_probabilities_);
    if (state_provider_ != nullptr) {
      plan.start = state_provider_->Propose(plan.slot, tasks_[plan.slot],
                                            &rng_);
    }
    if (reward_shaper_ != nullptr) {
      plan.shaper_context = reward_shaper_->BeginEpisode(plan.slot, &rng_);
    }
    plan.rng = rng_.Fork(static_cast<uint64_t>(i) + 1);
  }

  std::vector<Trajectory> trajectories(num_episodes);
  std::vector<std::vector<int>> episode_actions(num_episodes);
  const int collectors = std::max(1, std::min(config_.num_threads,
                                              num_episodes));
  ThreadPool::Global()->ParallelFor(collectors, collectors, [&](int c) {
    CollectShard(plans, c, collectors, &trajectories, &episode_actions);
  });

  for (int i = 0; i < num_episodes; ++i) {
    Trajectory& trajectory = trajectories[i];
    if (trajectory.transitions.empty()) continue;
    const int slot = plans[i].slot;
    const double episode_return = trajectory.episode_return;
    if (state_provider_ != nullptr) {
      state_provider_->OnTrajectory(slot, episode_actions[i], episode_return);
    }
    SeenTaskRuntime& task = tasks_[slot];
    task.buffer->AddTrajectory(std::move(trajectory));
    task.recent_returns.push_back(episode_return);
    while (static_cast<int>(task.recent_returns.size()) >
           config_.recent_returns_window) {
      task.recent_returns.pop_front();
    }
    ++stats.episodes;
  }

  // --- Parameter Updating Phase (Algorithm 1 lines 19-21) ---
  // Three passes, so that pooled work can never touch the sampling stream
  // or the update order: (1) sample every batch serially in (slot, k)
  // order — exactly the rng_ draw sequence of an interleaved
  // sample-then-train loop, since TrainBatch itself never draws; (2)
  // materialize the observation batches on the pool (pure reads of
  // transitions the ReadGuards keep borrowed — no AddTrajectory can run
  // until the guards drop); (3) take the gradient steps serially in the
  // same fixed (slot, k) order — TrainBatch steps are sequentially
  // dependent, and their GEMMs already fan out through the pooled kernels.
  struct PlannedUpdate {
    int slot = 0;
    std::vector<const Transition*> sampled;
    std::vector<BatchItem> batch;
  };
  std::vector<PlannedUpdate> updates;
  updates.reserve(static_cast<std::size_t>(num_tasks()) *
                  config_.updates_per_task);
  std::vector<ReplayBuffer::ReadGuard> guards;
  guards.reserve(tasks_.size());
  for (int slot = 0; slot < num_tasks(); ++slot) {
    if (tasks_[slot].buffer->empty()) continue;
    guards.emplace_back(*tasks_[slot].buffer);
    for (int k = 0; k < config_.updates_per_task; ++k) {
      PlannedUpdate update;
      update.slot = slot;
      update.sampled =
          tasks_[slot].buffer->SampleTransitions(config_.batch_size, &rng_);
      updates.push_back(std::move(update));
    }
  }
  ThreadPool::Global()->ParallelFor(
      static_cast<int>(updates.size()), config_.num_threads, [&](int u) {
        updates[u].batch = MaterializeBatch(updates[u].slot,
                                            updates[u].sampled);
      });
  double loss_total = 0.0;
  int loss_count = 0;
  for (PlannedUpdate& update : updates) {
    loss_total += agent_->TrainBatch(update.batch);
    ++loss_count;
  }
  guards.clear();
  stats.mean_loss = loss_count > 0 ? loss_total / loss_count : 0.0;

  // Close the reward-cache epoch at this serial point (collection and the
  // updates are joined, so no lookup is in flight), then drain the traffic
  // windows: the epoch's publishes graduate into the eviction slab in
  // sorted-key order and the budget sweep runs, so its evictions land in
  // this iteration's counters and the whole sequence is deterministic at
  // any thread count.
  for (const SeenTaskRuntime& task : tasks_) {
    task.context->evaluator->AdvanceCacheEpoch();
    const MemoryTraffic traffic = task.context->evaluator->TakeCacheTraffic();
    stats.cache_hits += traffic.hits;
    stats.cache_misses += traffic.misses;
    stats.cache_evictions += traffic.evictions;
    stats.cache_bytes += task.context->evaluator->cache_bytes();
  }
  long long replay_evictions_total = 0;
  for (const SeenTaskRuntime& task : tasks_) {
    replay_evictions_total += task.buffer->evictions();
    stats.replay_bytes += task.buffer->bytes();
  }
  stats.replay_evictions = replay_evictions_total - prev_replay_evictions_;
  prev_replay_evictions_ = replay_evictions_total;
  PF_LOG(Debug) << "iteration reward cache: " << stats.cache_hits
                << " hits, " << stats.cache_misses << " misses, "
                << stats.cache_evictions << " evictions ("
                << stats.cache_bytes << " bytes); replay "
                << stats.replay_evictions << " evictions ("
                << stats.replay_bytes << " bytes)";

  ++iteration_index_;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

TrainingStats Feat::Train(int iterations) {
  PF_CHECK_GT(iterations, 0);
  TrainingStats totals;
  double loss_sum = 0.0;
  for (int i = 0; i < iterations; ++i) {
    const IterationStats stats = RunIteration();
    ++totals.iterations;
    totals.total_seconds += stats.seconds;
    totals.episodes += stats.episodes;
    loss_sum += stats.mean_loss;
    totals.cache_hits += stats.cache_hits;
    totals.cache_misses += stats.cache_misses;
    totals.cache_evictions += stats.cache_evictions;
    totals.replay_evictions += stats.replay_evictions;
    totals.peak_cache_bytes =
        std::max(totals.peak_cache_bytes, stats.cache_bytes);
    totals.peak_replay_bytes =
        std::max(totals.peak_replay_bytes, stats.replay_bytes);
  }
  totals.mean_iteration_seconds = totals.total_seconds / totals.iterations;
  totals.mean_loss = loss_sum / totals.iterations;
  return totals;
}

namespace {

// Training-state section of checkpoint format v3 ("PFTS"). Version bumps
// here are independent of the agent-checkpoint format version.
constexpr uint32_t kTrainingStateMagic = 0x50465453;
constexpr uint32_t kTrainingStateVersion = 1;

// True when the rest of the blob can hold `count` records of at least
// `min_record_bytes` each. Every length field passes this before anything
// is sized from it, so a corrupt count fails instead of allocating: the
// loader allocates at most in proportion to its input.
bool CountFits(const ByteReader& in, uint64_t count,
               std::size_t min_record_bytes) {
  return in.ok() && count <= in.remaining() / min_record_bytes;
}

template <typename T>
void WriteVector(ByteWriter* out, const std::vector<T>& values) {
  out->U64(values.size());
  out->Raw(values.data(), values.size() * sizeof(T));
}

template <typename T>
bool ReadVector(ByteReader* in, std::vector<T>* out) {
  const uint64_t count = in->U64();
  if (!CountFits(*in, count, sizeof(T))) return false;
  out->resize(count);
  return count == 0 || in->Raw(out->data(), count * sizeof(T));
}

}  // namespace

void Feat::SerializeTrainingState(ByteWriter* out) const {
  out->U32(kTrainingStateMagic);
  out->U32(kTrainingStateVersion);
  for (const uint64_t word : rng_.SaveState()) out->U64(word);
  out->U64(iteration_index_);

  const DqnAgent::AgentTrainingState agent = agent_->ExportTrainingState();
  out->I64(agent.train_steps);
  WriteVector(out, agent.target_params);
  out->I64(agent.adam_step);
  WriteVector(out, agent.adam_m);
  WriteVector(out, agent.adam_v);
  WriteVector(out, agent.popart_mean);
  WriteVector(out, agent.popart_sq);
  out->Raw(agent.popart_init.data(), agent.popart_init.size());

  const uint32_t num_features =
      static_cast<uint32_t>(problem_->num_features());
  out->U32(num_features);
  out->U32(static_cast<uint32_t>(num_tasks()));
  for (const SeenTaskRuntime& task : tasks_) {
    out->I32(task.label_index);
    out->U32(static_cast<uint32_t>(task.recent_returns.size()));
    for (const double value : task.recent_returns) out->F64(value);
    // Replay trajectories in insertion order with their priorities: a
    // restored buffer replays the same Adds, so the relative order — the
    // only thing sampling and eviction observe — is preserved exactly.
    out->U32(static_cast<uint32_t>(task.buffer->num_trajectories()));
    task.buffer->ForEachStored([&](const Trajectory& trajectory,
                                   double priority) {
      out->F64(priority);
      out->F64(trajectory.episode_return);
      out->U32(static_cast<uint32_t>(trajectory.transitions.size()));
      for (const Transition& transition : trajectory.transitions) {
        out->I32(transition.state.position);
        out->Raw(transition.state.mask.data(), num_features);
        out->I32(transition.next_state.position);
        out->Raw(transition.next_state.mask.data(), num_features);
        out->I32(transition.action);
        out->F32(transition.reward);
        out->U8(transition.done ? 1 : 0);
      }
    });
    // Reward-cache contents (a pure memo: restoring it only converts the
    // resumed run's would-be misses back into hits).
    std::vector<std::pair<PackedMask, double>> entries;
    task.context->evaluator->ExportCacheEntries(&entries);
    const uint32_t words = (num_features + 63) / 64;
    out->U32(static_cast<uint32_t>(entries.size()));
    out->U32(words);
    for (const auto& [key, value] : entries) {
      PF_CHECK_EQ(key.size(), words);
      out->Raw(key.data(), static_cast<std::size_t>(words) * sizeof(uint64_t));
      out->F64(value);
    }
  }
}

bool Feat::RestoreTrainingState(ByteReader* in, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (iteration_index_ != 0) {
    return fail("training state must restore into a freshly constructed Feat");
  }
  if (in->U32() != kTrainingStateMagic || !in->ok()) {
    return fail("not a PA-FEAT training-state blob (bad magic)");
  }
  const uint32_t version = in->U32();
  if (!in->ok() || version != kTrainingStateVersion) {
    return fail("unknown training-state version " + std::to_string(version));
  }
  std::array<uint64_t, 6> rng_state;
  for (uint64_t& word : rng_state) word = in->U64();
  const uint64_t iteration = in->U64();

  DqnAgent::AgentTrainingState agent;
  agent.train_steps = in->I64();
  if (!ReadVector(in, &agent.target_params)) {
    return fail("corrupt training state (target parameters)");
  }
  agent.adam_step = in->I64();
  if (!ReadVector(in, &agent.adam_m) ||
      !ReadVector(in, &agent.adam_v)) {
    return fail("corrupt training state (optimizer moments)");
  }
  if (!ReadVector(in, &agent.popart_mean) ||
      !ReadVector(in, &agent.popart_sq)) {
    return fail("corrupt training state (PopArt statistics)");
  }
  agent.popart_init.resize(agent.popart_mean.size());
  if (!agent.popart_init.empty() &&
      !in->Raw(agent.popart_init.data(), agent.popart_init.size())) {
    return fail("truncated training state (PopArt flags)");
  }
  if (!in->ok()) return fail("truncated training state (agent)");
  if (!agent_->ImportTrainingState(agent)) {
    return fail("agent training state does not fit this architecture");
  }

  const uint32_t num_features = in->U32();
  if (!in->ok() ||
      num_features != static_cast<uint32_t>(problem_->num_features())) {
    return fail("training state was saved for a different feature space");
  }
  const uint32_t task_count = in->U32();
  if (!in->ok() || task_count != static_cast<uint32_t>(num_tasks())) {
    return fail("training state was saved for a different task list");
  }
  const uint32_t words = (num_features + 63) / 64;
  for (SeenTaskRuntime& task : tasks_) {
    const int32_t label_index = in->I32();
    if (!in->ok() || label_index != task.label_index) {
      return fail("training state was saved for a different task order");
    }
    const uint32_t return_count = in->U32();
    if (!CountFits(*in, return_count, sizeof(double))) {
      return fail("corrupt training state (recent-return count)");
    }
    task.recent_returns.clear();
    for (uint32_t i = 0; i < return_count; ++i) {
      task.recent_returns.push_back(in->F64());
    }
    // A trajectory record is at least its priority, return and transition
    // count; a transition is two (position, mask) states, the action, the
    // reward and the done byte.
    const uint32_t trajectory_count = in->U32();
    if (!CountFits(*in, trajectory_count,
                   2 * sizeof(double) + sizeof(uint32_t))) {
      return fail("corrupt training state (trajectory count)");
    }
    const std::size_t transition_bytes =
        2 * (sizeof(int32_t) + num_features) + sizeof(int32_t) +
        sizeof(float) + sizeof(uint8_t);
    for (uint32_t t = 0; t < trajectory_count; ++t) {
      const double priority = in->F64();
      Trajectory trajectory;
      trajectory.episode_return = in->F64();
      const uint32_t transition_count = in->U32();
      if (!CountFits(*in, transition_count, transition_bytes)) {
        return fail("corrupt training state (transition count)");
      }
      trajectory.transitions.resize(transition_count);
      for (Transition& transition : trajectory.transitions) {
        transition.state.position = in->I32();
        transition.state.mask.resize(num_features);
        in->Raw(transition.state.mask.data(), num_features);
        transition.next_state.position = in->I32();
        transition.next_state.mask.resize(num_features);
        in->Raw(transition.next_state.mask.data(), num_features);
        transition.action = in->I32();
        transition.reward = in->F32();
        transition.done = in->U8() != 0;
      }
      if (!in->ok()) return fail("truncated training state (replay)");
      task.buffer->AddTrajectory(std::move(trajectory), priority);
    }
    const uint32_t entry_count = in->U32();
    const uint32_t saved_words = in->U32();
    if (!in->ok() || saved_words != words ||
        !CountFits(*in, entry_count,
                   words * sizeof(uint64_t) + sizeof(double))) {
      return fail("corrupt training state (reward-cache entry count)");
    }
    for (uint32_t e = 0; e < entry_count; ++e) {
      PackedMask key(words);
      in->Raw(key.data(), static_cast<std::size_t>(words) * sizeof(uint64_t));
      const double value = in->F64();
      if (!in->ok()) return fail("truncated training state (reward cache)");
      task.context->evaluator->ImportCacheEntry(std::move(key), value);
    }
  }

  rng_.LoadState(rng_state);
  iteration_index_ = iteration;
  return true;
}

FeatureMask Feat::SelectForRepresentation(
    const std::vector<float>& repr) const {
  // Greedy Q-network episode on a virtual environment: no rewards are
  // computed (execution must not touch a classifier).
  return GreedySelectSubset(agent_->online_net(), repr,
                            config_.max_feature_ratio);
}

std::vector<FeatureMask> Feat::SelectForRepresentations(
    const std::vector<std::vector<float>>& reprs) const {
  return GreedySelectSubsets(agent_->online_net(), reprs,
                             config_.max_feature_ratio);
}

FeatureMask Feat::SelectForTask(int label_index, double* execution_seconds) {
  WallTimer timer;
  const std::vector<float> repr =
      problem_->ComputeTaskRepresentation(label_index);
  const FeatureMask mask = SelectForRepresentation(repr);
  if (execution_seconds != nullptr) *execution_seconds = timer.ElapsedSeconds();
  return mask;
}

}  // namespace pafeat
