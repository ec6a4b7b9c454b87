#ifndef PAFEAT_ML_SUBSET_EVALUATOR_H_
#define PAFEAT_ML_SUBSET_EVALUATOR_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "data/feature_mask.h"
#include "memory/budget.h"
#include "memory/reward_cache.h"
#include "ml/masked_dnn.h"
#include "tensor/matrix.h"

namespace pafeat {

// The reward function of Eqn 2 for one task, with memoization:
//   r = P(CLS(X^F'), Y)
// where CLS is the task's pretrained MaskedDnnClassifier and P is AUC over a
// fixed evaluation row set. RL-based feature selection calls the reward for
// the same subsets over and over, so the (task-local) cache keyed by the
// subset bitmask removes the dominant cost (the benchmark's
// ml.reward_hit_us against ml.reward_miss_us, benchmark/README.md).
//
// The evaluation rows come as a contiguous block, gathered once by the
// problem (FsProblem) and shared by its tasks. Every cache miss runs one
// path: a SubsetRecord folded,
// finished and scored by MaskedDnnClassifier::EvaluateAucCarried over that
// block, so its cost scales with the columns the record has not folded yet
// rather than the feature count, and no masked copy is materialized. A scan
// keeps its record between steps (FeatureSelectionEnv), so a miss along it
// costs only the newly selected columns; the mask forms below build a fresh
// record on a miss.
//
// The cache behind Reward is a bounded TieredRewardCache (DESIGN.md "Bounded
// memory plane"): the byte budget resolves through ResolveCacheBudgetBytes
// (config > PAFEAT_CACHE_BUDGET > unlimited), rewards are computed outside
// the cache lock, and concurrent misses on one mask dedup through the
// cache's in-flight claims — the first thread computes, later arrivals wait
// and read the cached value (counted as hits). Eviction cannot change any
// reward value (the cache is a pure memo), only the traffic counters; the
// cache evicts only at epoch boundaries, so counters too are deterministic
// at any thread count when the training loop drives the epochs.
class SubsetEvaluator {
 public:
  // `eval_block` holds the evaluation rows (every row is scored, over all
  // features) and must outlive the evaluator; `eval_labels` are its rows'
  // 0/1 labels. Evaluators of one problem share its block.
  SubsetEvaluator(const Matrix* eval_block, std::vector<float> eval_labels,
                  const MaskedDnnClassifier* classifier,
                  long long cache_budget_bytes = kMemoryBudgetDefault);

  // Restarts `record` at `mask` for this evaluator's eval block, O(m)
  // (SubsetRecord::Restart). A scan restarts its record here, then selects
  // into it and asks Reward(record) after every select.
  void StartRecord(const FeatureMask& mask, int max_cols,
                   SubsetRecord* record) const;

  // Cached AUC reward of the record's subset, probed with the record's key.
  // A miss folds the columns the record selected since its last miss and
  // publishes a copy of the key; a hit leaves the record's sum behind, and
  // the next miss folds in every column it skipped. The record is owned by
  // the caller and used with this evaluator only.
  double Reward(SubsetRecord* record) const;

  // Cached AUC reward of the subset: packs the mask into the key, and only
  // on a miss builds a fresh record for the same miss path.
  double Reward(const FeatureMask& mask) const;

  // The cache-miss cost of Reward, without touching the cache: one AUC
  // evaluation of the subset over the precomputed eval block, the miss path
  // on a fresh record. Exposed for benchmarks and tests.
  double EvaluateUncached(const FeatureMask& mask) const;

  // Reward of the full feature set (the P_all baseline of Eqn 6a).
  double FullFeatureReward() const;

  int num_features() const { return eval_block_->cols(); }

  // Running totals (never reset; the historical telemetry contract).
  long long cache_hits() const { return cache_.total_hits(); }
  long long cache_misses() const { return cache_.total_misses(); }
  long long cache_evictions() const { return cache_.total_evictions(); }
  std::size_t cache_bytes() const { return cache_.bytes(); }

  // Drains the per-iteration telemetry window: every hit/miss/eviction lands
  // in exactly one drain, attributed at resolve time — a stampede waiter
  // that resolves after an iteration rollover counts toward the iteration
  // that drains it, never lost between baselines.
  MemoryTraffic TakeCacheTraffic() const { return cache_.TakeTraffic(); }

  // Serial point of the training loop: closes the cache epoch (graduates
  // this epoch's inserts in sorted-key order, runs the budget sweep).
  void AdvanceCacheEpoch() const { cache_.AdvanceEpoch(); }

  // A training loop takes manual control of epochs (one per iteration);
  // without it the cache auto-sweeps on a publish-count trigger.
  void SetManualCacheControl(bool manual) const {
    cache_.SetManualEpochControl(manual);
  }

  // Warm-resume persistence of the memo contents (checkpoint v3).
  void ExportCacheEntries(
      std::vector<std::pair<PackedMask, double>>* out) const {
    cache_.ExportEntries(out);
  }
  void ImportCacheEntry(const PackedMask& key, double value) const {
    cache_.ImportEntry(key, value);
  }

 private:
  // The miss path of both Reward forms, for a key this caller claimed:
  // evaluate the record outside the cache lock, then publish.
  double ComputeAndPublish(SubsetRecord* record) const;

  const Matrix* eval_block_;
  std::vector<float> eval_labels_;
  const MaskedDnnClassifier* classifier_;
  // Mutable: memoization is logically const (Reward is a pure function of
  // the mask; the cache only changes cost and counters).
  mutable TieredRewardCache cache_;
};

}  // namespace pafeat

#endif  // PAFEAT_ML_SUBSET_EVALUATOR_H_
