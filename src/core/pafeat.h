#ifndef PAFEAT_CORE_PAFEAT_H_
#define PAFEAT_CORE_PAFEAT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/feat.h"
#include "core/ite.h"

namespace pafeat {

// Full PA-FEAT configuration: the FEAT framework plus the two progress-aware
// components, with ablation switches matching Table III.
struct PaFeatConfig {
  FeatConfig feat;
  IteConfig ite;
  int its_recent_n = 8;
  double its_temperature = 0.2;
  double its_min_share_of_uniform = 0.5;
  bool use_its = true;  // Inter-Task Scheduler (w/o ITS ablation: false)
  bool use_ite = true;  // Intra-Task Explorer (w/o ITE ablation: false)
};

// The paper's complete method: FEAT + Inter-Task Scheduler + Intra-Task
// Explorer. Train() generalizes knowledge over the seen tasks; SelectFeatures
// transfers it to an unseen task in milliseconds; FurtherTrain (§IV-D)
// optionally keeps improving on a labeled unseen task.
class PaFeat {
 public:
  PaFeat(FsProblem* problem, std::vector<int> seen_label_indices,
         const PaFeatConfig& config);

  // Trains for `iterations` Algorithm-1 iterations and returns the
  // aggregated run statistics (mean_iteration_seconds is Table II's "Iter").
  TrainingStats Train(int iterations) { return feat_->Train(iterations); }

  IterationStats RunIteration() { return feat_->RunIteration(); }

  // Fast feature selection for an unseen task; `execution_seconds` (optional)
  // receives the wall time of the execution path (Table II's "Exec").
  FeatureMask SelectFeatures(int unseen_label_index,
                             double* execution_seconds = nullptr);

  // Fast feature selection for several unseen tasks at once: the per-step Q
  // queries of all tasks run through the batched inference plane (one
  // forward pass per feature position instead of one per task per
  // position). Mask i is bit-identical to SelectFeatures(unseen[i]).
  // `execution_seconds` (optional) receives the total wall time over the
  // batch.
  std::vector<FeatureMask> SelectFeaturesForTasks(
      const std::vector<int>& unseen_label_indices,
      double* execution_seconds = nullptr);

  // §IV-D: further training on one (now labeled) unseen task. The callback,
  // when set, is invoked every `callback_every` iterations with the current
  // greedy selection for the task. Returns the final selection.
  FeatureMask FurtherTrain(
      int unseen_label_index, int iterations, int callback_every,
      const std::function<void(int iteration, const FeatureMask&)>& callback);

  // Warm-resume persistence (checkpoint v3): the Feat training state (RNG,
  // iteration index, agent target/optimizer state, replay buffers with
  // priorities, reward caches) followed by the per-task Experience-Trees.
  // Restore requires a freshly constructed PaFeat over the same problem,
  // task list and ablation switches; on failure it returns false with a
  // reason in `error` and the instance must be discarded. A restored run
  // continues bit-identically to the uninterrupted one (the SITP scheduler's
  // internal success trace is the one documented approximation — it
  // re-primes on the first resumed iteration).
  std::vector<std::uint8_t> SerializeTrainingState() const;
  bool RestoreTrainingState(const std::vector<std::uint8_t>& blob,
                            std::string* error);

  Feat& feat() { return *feat_; }
  const Feat& feat() const { return *feat_; }
  const PaFeatConfig& config() const { return config_; }
  // The ITE, or nullptr under the w/o-ITE ablation.
  const IntraTaskExplorer* explorer() const { return explorer_; }

 private:
  PaFeatConfig config_;
  std::unique_ptr<Feat> feat_;
  IntraTaskExplorer* explorer_ = nullptr;  // owned by feat_
};

}  // namespace pafeat

#endif  // PAFEAT_CORE_PAFEAT_H_
