#include "baselines/feat_based.h"

#include <cmath>

#include "common/logging.h"

namespace pafeat {

std::string PaFeatAblation::Suffix() const {
  if (use_its && use_ite && policy_exploitation) return "";
  if (!use_its && !use_ite) return " w/o ITS&ITE";
  if (!use_its) return " w/o ITS";
  if (!use_ite) return " w/o ITE";
  return " w/o PE";
}

PaFeatSelector::PaFeatSelector(const FeatBasedOptions& options,
                               const PaFeatAblation& ablation)
    : options_(options), ablation_(ablation) {}

std::string PaFeatSelector::name() const {
  return "PA-FEAT" + ablation_.Suffix();
}

double PaFeatSelector::Prepare(FsProblem* problem,
                               const std::vector<int>& seen,
                               double max_feature_ratio) {
  PaFeatConfig config;
  config.feat = options_.feat;
  config.feat.max_feature_ratio = max_feature_ratio;
  config.use_its = ablation_.use_its;
  config.use_ite = ablation_.use_ite;
  config.ite.policy_exploitation = ablation_.policy_exploitation;
  pafeat_ = std::make_unique<PaFeat>(problem, seen, config);
  return pafeat_->Train(options_.train_iterations).mean_iteration_seconds;
}

FeatureMask PaFeatSelector::SelectForUnseen(FsProblem* problem,
                                            int unseen_label_index,
                                            double* execution_seconds) {
  (void)problem;  // the trainer holds the problem
  PF_CHECK(pafeat_ != nullptr);
  return pafeat_->SelectFeatures(unseen_label_index, execution_seconds);
}

PopArtSelector::PopArtSelector(const FeatBasedOptions& options)
    : options_(options) {}

double PopArtSelector::Prepare(FsProblem* problem,
                               const std::vector<int>& seen,
                               double max_feature_ratio) {
  FeatConfig config = options_.feat;
  config.max_feature_ratio = max_feature_ratio;
  config.dqn.use_popart = true;
  config.dqn.net.extra_rescale_layer = true;
  feat_ = std::make_unique<Feat>(problem, seen, config);
  return feat_->Train(options_.train_iterations).mean_iteration_seconds;
}

FeatureMask PopArtSelector::SelectForUnseen(FsProblem* problem,
                                            int unseen_label_index,
                                            double* execution_seconds) {
  (void)problem;
  PF_CHECK(feat_ != nullptr);
  return feat_->SelectForTask(unseen_label_index, execution_seconds);
}

GoExploreProvider::GoExploreProvider(int num_features, double use_probability)
    : num_features_(num_features), use_probability_(use_probability) {}

int GoExploreProvider::ArchiveSize(int task_slot) const {
  if (task_slot >= static_cast<int>(archives_.size())) return 0;
  return static_cast<int>(archives_[task_slot].entries.size());
}

std::optional<EpisodeStart> GoExploreProvider::Propose(
    int task_slot, const SeenTaskRuntime& task, Rng* rng) {
  (void)task;
  if (task_slot >= static_cast<int>(archives_.size())) return std::nullopt;
  TaskArchive& archive = archives_[task_slot];
  if (archive.entries.empty()) return std::nullopt;
  if (!rng->Bernoulli(use_probability_)) return std::nullopt;

  // Count-based novelty: states chosen less often get more weight
  // (Go-Explore's "return to promising, under-visited cells").
  std::vector<double> weights(archive.entries.size());
  for (size_t i = 0; i < archive.entries.size(); ++i) {
    weights[i] = 1.0 / std::sqrt(1.0 + archive.entries[i].times_chosen);
  }
  const int pick = rng->SampleDiscrete(weights);
  Entry& entry = archive.entries[pick];
  ++entry.times_chosen;

  EpisodeStart start;
  start.state = entry.state;
  // In this MDP the decision path is recoverable from the state itself:
  // action i equals mask[i] for every scanned position.
  start.prefix.resize(entry.state.position);
  for (int i = 0; i < entry.state.position; ++i) {
    start.prefix[i] = entry.state.mask[i] ? 1 : 0;
  }
  // Decoupled exploration: rollouts from archive states use a random policy.
  start.random_policy = true;
  return start;
}

void GoExploreProvider::OnTrajectory(int task_slot,
                                     const std::vector<int>& actions,
                                     double episode_return) {
  (void)episode_return;
  while (task_slot >= static_cast<int>(archives_.size())) {
    archives_.emplace_back();
  }
  TaskArchive& archive = archives_[task_slot];

  EnvState state;
  state.mask.assign(num_features_, 0);
  state.position = 0;
  for (int action : actions) {
    AdvanceState(action, &state);
    if (state.position >= num_features_) break;
    const std::string key =
        MaskKey(state.mask) + static_cast<char>(state.position & 0xff) +
        static_cast<char>((state.position >> 8) & 0xff);
    if (archive.index.find(key) == archive.index.end()) {
      archive.index.emplace(key, static_cast<int>(archive.entries.size()));
      archive.entries.push_back({state, 0});
    }
  }
}

GoExploreSelector::GoExploreSelector(const FeatBasedOptions& options)
    : options_(options) {}

double GoExploreSelector::Prepare(FsProblem* problem,
                                  const std::vector<int>& seen,
                                  double max_feature_ratio) {
  FeatConfig config = options_.feat;
  config.max_feature_ratio = max_feature_ratio;
  feat_ = std::make_unique<Feat>(problem, seen, config);
  feat_->SetInitialStateProvider(std::make_unique<GoExploreProvider>(
      problem->num_features(), /*use_probability=*/0.7));
  return feat_->Train(options_.train_iterations).mean_iteration_seconds;
}

FeatureMask GoExploreSelector::SelectForUnseen(FsProblem* problem,
                                               int unseen_label_index,
                                               double* execution_seconds) {
  (void)problem;
  PF_CHECK(feat_ != nullptr);
  return feat_->SelectForTask(unseen_label_index, execution_seconds);
}

RandomizedRewardShaper::RandomizedRewardShaper(double low, double high,
                                               double noise_stddev)
    : low_(low), high_(high), noise_stddev_(noise_stddev) {}

double RandomizedRewardShaper::BeginEpisode(int task_slot, Rng* rng) {
  (void)task_slot;
  return rng->Uniform(low_, high_);
}

double RandomizedRewardShaper::Shape(double reward, int task_slot,
                                     double context, Rng* rng) {
  (void)task_slot;
  return context * reward + rng->Normal(0.0, noise_stddev_);
}

RewardRandomizationSelector::RewardRandomizationSelector(
    const FeatBasedOptions& options)
    : options_(options) {}

double RewardRandomizationSelector::Prepare(FsProblem* problem,
                                            const std::vector<int>& seen,
                                            double max_feature_ratio) {
  FeatConfig config = options_.feat;
  config.max_feature_ratio = max_feature_ratio;
  // The original RR trains against an ensemble of perturbed reward functions;
  // here that shows up as extra optimization passes over freshly perturbed
  // batches, which is what makes RR the slowest trainer in Table II.
  config.updates_per_task = options_.feat.updates_per_task * 2;
  feat_ = std::make_unique<Feat>(problem, seen, config);
  feat_->SetRewardShaper(std::make_unique<RandomizedRewardShaper>(
      /*low=*/0.5, /*high=*/1.5, /*noise_stddev=*/0.02));
  return feat_->Train(options_.train_iterations).mean_iteration_seconds;
}

FeatureMask RewardRandomizationSelector::SelectForUnseen(
    FsProblem* problem, int unseen_label_index, double* execution_seconds) {
  (void)problem;
  PF_CHECK(feat_ != nullptr);
  return feat_->SelectForTask(unseen_label_index, execution_seconds);
}

}  // namespace pafeat
