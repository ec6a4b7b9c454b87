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
  return ScheduleProbabilities(progress);
}

Feat::Feat(FsProblem* problem, std::vector<int> seen_label_indices,
           const FeatConfig& config)
    : problem_(problem), config_(config), rng_(config.seed) {
  PF_CHECK(problem != nullptr);
  PF_CHECK(!seen_label_indices.empty());

  for (int label_index : seen_label_indices) AddTask(label_index);

  // Collection and the learner share the persistent process-wide pool (no
  // thread spawn/join per iteration). An iteration runs at most
  // min(num_threads, envs_per_iteration) collectors, then tasks x
  // updates_per_task gradient steps whose large GEMMs split row panels over
  // every executor the pool has. The pool grows to min(num_threads,
  // max(envs_per_iteration, tasks x updates_per_task)) executors and no
  // further (the iterating thread is one executor).
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
  scheduler_ = std::make_unique<UniformScheduler>();
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

// Steady state of the learner: one gradient step's batch is written into
// the reused learner_batch_, so it must stay heap-quiet — enforced by
// pafeat-analyze (hot-path-alloc).
// analyze: hot-path-root
void Feat::FillLearnerBatch(int slot, const std::vector<StepRef>& sampled) {
  const FeatureSelectionEnv& env = *tasks_[slot].env;
  PF_CHECK_EQ(learner_batch_.rows(), static_cast<int>(sampled.size()));
  for (int i = 0; i < learner_batch_.rows(); ++i) {
    const Trajectory& trajectory = *sampled[i].trajectory;
    const StoredStep& step = trajectory.steps[sampled[i].step];
    // The step's state, rebuilt into the reused scratch state, and its next
    // state, the same scratch advanced by the step's action.
    trajectory.StateBeforeInto(sampled[i].step, &learner_state_);
    env.ObservationForInto(learner_state_, learner_batch_.observations.Row(i));
    AdvanceState(step.action, &learner_state_);
    env.ObservationForInto(learner_state_,
                           learner_batch_.next_observations.Row(i));
    learner_batch_.actions[i] = step.action;
    learner_batch_.rewards[i] = step.reward;
    learner_batch_.done[i] = step.done ? 1 : 0;
    learner_batch_.task_ids[i] = slot;
  }
}

IterationStats Feat::RunIteration() {
  WallTimer timer;
  IterationStats stats;

  // --- Buffer Filling Phase (Algorithm 1 lines 4-18) ---
  const int num_episodes = config_.envs_per_iteration;
  std::vector<double>& probabilities = stats.task_probabilities;
  if (focus_slot_ >= 0) {
    PF_CHECK_LT(focus_slot_, num_tasks());
    probabilities.assign(tasks_.size(), 0.0);
    probabilities[focus_slot_] = 1.0;
  } else {
    probabilities = scheduler_->Probabilities(tasks_);
  }
  PF_CHECK_EQ(probabilities.size(), tasks_.size());

  // Plan all N episodes on this thread (task choice, customized initial
  // state, per-episode RNG, reward-shaper context), then deal them
  // round-robin to the collectors — one per executor, inline when there is
  // one — and commit the results in plan order. This keeps runs
  // bit-identical for a fixed seed at any thread count.
  std::vector<EpisodePlan> plans(num_episodes);
  for (int i = 0; i < num_episodes; ++i) {
    EpisodePlan& plan = plans[i];
    plan.slot = rng_.SampleDiscrete(probabilities);
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

  // Episode returns each task keeps in SeenTaskRuntime::recent_returns.
  constexpr int kRecentReturnsWindow = 32;
  for (int i = 0; i < num_episodes; ++i) {
    Trajectory& trajectory = trajectories[i];
    if (trajectory.steps.empty()) continue;
    const int slot = plans[i].slot;
    const double episode_return = trajectory.episode_return;
    if (state_provider_ != nullptr) {
      state_provider_->OnTrajectory(slot, episode_actions[i], episode_return);
    }
    SeenTaskRuntime& task = tasks_[slot];
    task.buffer->AddTrajectory(std::move(trajectory));
    task.recent_returns.push_back(episode_return);
    while (static_cast<int>(task.recent_returns.size()) >
           kRecentReturnsWindow) {
      task.recent_returns.pop_front();
    }
    ++stats.episodes;
  }

  // --- Parameter Updating Phase (Algorithm 1 lines 19-21) ---
  // Two passes: (1) sample every batch serially in (slot, k) order —
  // exactly the rng_ draw sequence of an interleaved sample-then-train
  // loop, since TrainBatch itself never draws; (2) for each update in the
  // same fixed (slot, k) order, write its rows into the one reused learner
  // batch (pure reads of steps the ReadGuards keep borrowed — no
  // AddTrajectory can run until the guards drop) and take its gradient
  // step. TrainBatch steps are sequentially dependent, and their GEMMs
  // already fan out through the pooled kernels.
  struct PlannedUpdate {
    int slot = 0;
    std::vector<StepRef> sampled;
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
  double loss_total = 0.0;
  int loss_count = 0;
  if (!updates.empty()) {
    learner_batch_.Resize(config_.batch_size,
                          tasks_.front().env->observation_dim());
  }
  for (const PlannedUpdate& update : updates) {
    FillLearnerBatch(update.slot, update.sampled);
    loss_total += agent_->TrainBatch(learner_batch_);
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

bool IsBinaryMask(const FeatureMask& mask) {
  return std::all_of(mask.begin(), mask.end(),
                     [](uint8_t bit) { return bit <= 1; });
}

// Why a replay record's step (state, action, next state) is not a step the
// scan takes — from `previous_next`, the record's previous next state, when
// there is one — or nullptr when it is. Exactly the steps that pass can be
// stored as a start state plus decisions (Trajectory) and rebuilt bit for
// bit; the learner indexes the task representation by their positions and
// the Q-values by their actions.
const char* InvalidReplayStep(const EnvState& state, int32_t action,
                              const EnvState& next,
                              const EnvState* previous_next) {
  if (previous_next != nullptr && !(state == *previous_next)) {
    return "its state differs from the previous step's next state";
  }
  const int num_features = static_cast<int>(state.mask.size());
  if (state.position < 0 || state.position >= num_features) {
    return "its state position is outside [0, m)";
  }
  if (action != kActionDeselect && action != kActionSelect) {
    return "its action is not 0 or 1";
  }
  if (!IsBinaryMask(state.mask) || !IsBinaryMask(next.mask)) {
    return "a mask byte is not 0 or 1";
  }
  EnvState advanced = state;
  AdvanceState(action, &advanced);
  if (!(next == advanced)) {
    return "its next state is not its state advanced by its action";
  }
  return nullptr;
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
    // Each step keeps the blob's two-state layout: its state and next state,
    // rebuilt by advancing the start state one decision at a time.
    task.buffer->ForEachStored([&](const Trajectory& trajectory,
                                   double priority) {
      out->F64(priority);
      out->F64(trajectory.episode_return);
      out->U32(static_cast<uint32_t>(trajectory.num_steps()));
      EnvState state = trajectory.start;
      for (const StoredStep& step : trajectory.steps) {
        out->I32(state.position);
        out->Raw(state.mask.data(), num_features);
        AdvanceState(step.action, &state);
        out->I32(state.position);
        out->Raw(state.mask.data(), num_features);
        out->I32(step.action);
        out->F32(step.reward);
        out->U8(step.done ? 1 : 0);
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
    // Steps are read in the two-state layout and must chain into one scan
    // (InvalidReplayStep): the record keeps the first state and the
    // decisions.
    EnvState state;
    EnvState next;
    EnvState previous_next;
    state.mask.resize(num_features);
    next.mask.resize(num_features);
    previous_next.mask.resize(num_features);
    for (uint32_t t = 0; t < trajectory_count; ++t) {
      const double priority = in->F64();
      Trajectory trajectory;
      trajectory.episode_return = in->F64();
      const uint32_t transition_count = in->U32();
      if (!CountFits(*in, transition_count, transition_bytes)) {
        return fail("corrupt training state (transition count)");
      }
      trajectory.steps.resize(transition_count);
      for (uint32_t s = 0; s < transition_count; ++s) {
        state.position = in->I32();
        in->Raw(state.mask.data(), num_features);
        next.position = in->I32();
        in->Raw(next.mask.data(), num_features);
        const int32_t action = in->I32();
        StoredStep& step = trajectory.steps[s];
        step.reward = in->F32();
        step.done = in->U8() != 0;
        if (!in->ok()) return fail("truncated training state (replay)");
        const char* why = InvalidReplayStep(
            state, action, next, s > 0 ? &previous_next : nullptr);
        if (why != nullptr) {
          return fail("corrupt training state (replay of task " +
                      std::to_string(task.label_index) + ", trajectory " +
                      std::to_string(t) + ", step " + std::to_string(s) +
                      ": " + why + ")");
        }
        step.action = static_cast<uint8_t>(action);
        if (s == 0) trajectory.start = state;
        std::swap(previous_next, next);
      }
      task.buffer->AddTrajectory(std::move(trajectory), priority);
    }
    const uint32_t entry_count = in->U32();
    const uint32_t saved_words = in->U32();
    if (!in->ok() || saved_words != words ||
        !CountFits(*in, entry_count,
                   words * sizeof(uint64_t) + sizeof(double))) {
      return fail("corrupt training state (reward-cache entry count)");
    }
    PackedMask key(words);
    for (uint32_t e = 0; e < entry_count; ++e) {
      in->Raw(key.data(), static_cast<std::size_t>(words) * sizeof(uint64_t));
      const double value = in->F64();
      if (!in->ok()) return fail("truncated training state (reward cache)");
      task.context->evaluator->ImportCacheEntry(key, value);
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
