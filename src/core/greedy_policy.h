#ifndef PAFEAT_CORE_GREEDY_POLICY_H_
#define PAFEAT_CORE_GREEDY_POLICY_H_

#include <vector>

#include "data/feature_mask.h"
#include "nn/dueling_net.h"

namespace pafeat {

// Resumable per-request greedy-scan state (DESIGN.md "Selection serving
// plane"): one task's position in the left-to-right feature scan, factored
// out of GreedySelectSubsets so requests of different ages can join and
// leave a shared forward-pass batch at step boundaries — the
// SelectionServer's continuous batching. The observation layout, decision
// rule, retirement rule, empty-subset fallback and the Q-network's
// first-layer carry live here and only here; the standalone batch scan and
// the server both drive this class, so the bit-identity contract (row r of
// a batched forward == the standalone single-row scan) extends structurally
// to any mix of concurrently coalesced peers.
//
// The first-layer carry (DESIGN.md "Inference fast path") keeps each hidden
// unit's lane sums over the observation's columns below 8 * floor(2m / 8):
// the representation, fixed for the scan, and mask entries, which only go
// 0 -> 1 at the scan's own position. A step recomputes only the 3 to 10
// columns from there on: at most one lane block plus a tail of at most 7.
//
// Every method is allocation-free — all storage is caller-owned — which is
// what lets server request slots be rebound without heap churn on the
// serving loop's hot path.
class GreedyScanState {
 public:
  GreedyScanState() = default;

  // Binds to `net` and caller-owned storage and rewinds to position 0 /
  // empty subset. `observation` must hold 2m+3 floats (layout [repr(m) |
  // mask(m) | pos/m | repr[pos] | selected/m]), `carry` net->carry_size()
  // floats, and `mask` must already have size m. The observation and mask
  // are fully (re)initialized here, the carry by the first
  // EmitFirstLayerRow. `net` and `representation` must stay alive until the
  // scan finishes (servers hold the blocked caller's vector).
  void Bind(const DuelingNet* net, const float* representation, int m,
            double max_feature_ratio, float* observation, float* carry,
            FeatureMask* mask);

  // True once the scan has retired: position ran off the end or the
  // selection budget is exhausted (Algorithm 1 line 10).
  bool ScanDone() const {
    return position_ >= m_ || selected_ >= max_selectable_;
  }

  // Refreshes the position-dependent tail fields and writes this step's
  // first-layer sums (net->first_layer_width() floats) to `row_out` — one
  // row of the coalesced batch that DuelingNet::PredictFromFirstLayerInto
  // finishes. The first call after Bind initializes the carry. Requires
  // !ScanDone().
  void EmitFirstLayerRow(float* row_out);

  // Applies the greedy select/deselect decision for the current position
  // from this request's row of the shared forward pass (kNumActions floats),
  // then advances the scan.
  void ApplyDecision(const float* q_row);

  // After the scan retires: if the greedy pass selected nothing, selects the
  // single most task-relevant feature (a usable selector never returns the
  // empty subset). Idempotent; no-op when anything was selected.
  void FinalizeFallback();

  int position() const { return position_; }
  int selected_count() const { return selected_; }
  int max_selectable() const { return max_selectable_; }

 private:
  const DuelingNet* net_ = nullptr;
  const float* representation_ = nullptr;
  float* observation_ = nullptr;
  float* carry_ = nullptr;
  FeatureMask* mask_ = nullptr;
  int m_ = 0;
  int carried_ = 0;  // observation columns the carry covers
  int position_ = 0;
  int selected_ = 0;
  int max_selectable_ = 0;
};

// The unseen-task execution path shared by the live trainer and restored
// checkpoints (Algorithm 1 lines 22-24): one greedy scan of the Q-network
// over the task representation, bounded by the max feature ratio. If the
// greedy pass selects nothing, falls back to the single most task-relevant
// feature (a usable selector never returns the empty subset).
//
// The network's input must be laid out as the FeatureSelectionEnv
// observation: [task_repr(m) | mask(m) | pos/m | repr[pos] | selected/m].
//
// Implemented as GreedySelectSubsets on a batch of one — there is no
// separate single-task scan.
FeatureMask GreedySelectSubset(const DuelingNet& net,
                               const std::vector<float>& representation,
                               double max_feature_ratio);

// Multi-task execution through the batched inference plane: all tasks scan
// their feature positions in lock-step and each position's Q queries run as
// one batched forward pass instead of one single-row pass per task. Tasks
// whose selection budget is exhausted retire from the batch. Result i is
// bit-identical to GreedySelectSubset(net, representations[i], ...) — the
// kernels guarantee per-row bits independent of the batch composition. All
// representations must have the same dimension (one Q-network serves one
// observation layout).
std::vector<FeatureMask> GreedySelectSubsets(
    const DuelingNet& net,
    const std::vector<std::vector<float>>& representations,
    double max_feature_ratio);

}  // namespace pafeat

#endif  // PAFEAT_CORE_GREEDY_POLICY_H_
