#include "core/greedy_policy.h"

#include <algorithm>
#include <cstddef>

#include "common/logging.h"
#include "rl/fs_env.h"
#include "tensor/kernels.h"

namespace pafeat {

void GreedyScanState::Bind(const DuelingNet* net,
                           const float* representation, int m,
                           double max_feature_ratio, float* observation,
                           float* carry, FeatureMask* mask) {
  PF_DCHECK_GT(m, 0);
  PF_DCHECK_GT(max_feature_ratio, 0.0);
  PF_DCHECK_EQ(static_cast<int>(mask->size()), m);
  PF_DCHECK_EQ(net->config().input_dim, 2 * m + 3);
  net_ = net;
  representation_ = representation;
  observation_ = observation;
  carry_ = carry;
  mask_ = mask;
  m_ = m;
  // The last full lane block below the position fields at 2m.
  carried_ = 2 * m / kernels::kRowwiseLanes * kernels::kRowwiseLanes;
  position_ = 0;
  selected_ = 0;
  max_selectable_ = std::max(1, static_cast<int>(max_feature_ratio * m));
  std::copy(representation, representation + m, observation);
  std::fill(observation + m, observation + 2 * m + 3, 0.0f);
  std::fill(mask->begin(), mask->end(), static_cast<uint8_t>(0));
}

void GreedyScanState::EmitFirstLayerRow(float* row_out) {
  observation_[2 * m_] = static_cast<float>(position_) / m_;
  observation_[2 * m_ + 1] = representation_[position_];
  observation_[2 * m_ + 2] = static_cast<float>(selected_) / m_;
  // A scan's first step sees the empty mask: the carry starts here, on the
  // thread that runs the step.
  if (position_ == 0) net_->InitCarry(carried_, observation_, carry_);
  net_->FinishCarry(carried_, observation_, carry_, row_out);
}

void GreedyScanState::ApplyDecision(const float* q_row) {
  if (q_row[kActionSelect] > q_row[kActionDeselect]) {
    (*mask_)[position_] = 1;
    observation_[m_ + position_] = 1.0f;
    ++selected_;
    // Every later carried column of this lane is a mask entry past the
    // scan position, still 0: the append is exact.
    if (m_ + position_ < carried_) net_->AppendCarry(m_ + position_, carry_);
  }
  ++position_;
}

void GreedyScanState::FinalizeFallback() {
  if (selected_ > 0) return;
  int best = 0;
  for (int f = 1; f < m_; ++f) {
    if (representation_[f] > representation_[best]) best = f;
  }
  (*mask_)[best] = 1;
}

namespace {

// The lock-step scan. All per-request mechanics (observation layout,
// decision rule, first-layer carry, retirement, fallback) live in
// GreedyScanState — the same machine the SelectionServer drives with
// continuous batching, so the two paths cannot drift.
//
// This is the greedy execution path's steady state: after the per-request
// setup below, the scan loop must not touch the heap.
// analyze: hot-path-root
std::vector<FeatureMask> GreedyScan(
    const DuelingNet& net,
    const std::vector<std::vector<float>>& representations,
    double max_feature_ratio) {
  const int num_tasks = static_cast<int>(representations.size());
  if (num_tasks == 0) return {};
  const int m = static_cast<int>(representations[0].size());
  PF_CHECK_GT(m, 0);
  PF_CHECK_EQ(net.config().input_dim, 2 * m + 3);
  PF_CHECK_GT(max_feature_ratio, 0.0);
  const int obs_dim = 2 * m + 3;
  const int width = net.first_layer_width();
  const std::size_t carry_size = static_cast<std::size_t>(net.carry_size());

  std::vector<float> observations(static_cast<std::size_t>(num_tasks) *
                                  obs_dim);
  std::vector<float> carries(num_tasks * carry_size);
  std::vector<FeatureMask> masks(num_tasks, FeatureMask(m, 0));
  std::vector<GreedyScanState> states(num_tasks);
  std::vector<int> live;
  // lint: allow(hot-path-alloc): per-request setup, before the scan loop
  live.reserve(num_tasks);
  for (int t = 0; t < num_tasks; ++t) {
    PF_CHECK_EQ(static_cast<int>(representations[t].size()), m);
    states[t].Bind(&net, representations[t].data(), m, max_feature_ratio,
                   observations.data() + static_cast<std::size_t>(t) * obs_dim,
                   carries.data() + t * carry_size, &masks[t]);
    // lint: allow(hot-path-alloc): reserved above; fills the setup worklist
    live.push_back(t);
  }

  // The whole multi-task scan shares the thread's inference arena: the
  // execution path allocates nothing per step beyond these two blocks.
  InferenceArena* arena = InferenceArena::ThreadLocal();
  ArenaScope scope(arena);
  float* batch = arena->Alloc(static_cast<std::size_t>(num_tasks) * width);
  float* q =
      arena->Alloc(static_cast<std::size_t>(num_tasks) * kNumActions);
  while (!live.empty()) {
    const int rows = static_cast<int>(live.size());
    for (int r = 0; r < rows; ++r) {
      states[live[r]].EmitFirstLayerRow(
          batch + static_cast<std::size_t>(r) * width);
    }
    // One forward pass decides this step for every live task.
    net.PredictFromFirstLayerInto(rows, batch, arena, q);
    for (int r = 0; r < rows; ++r) {
      states[live[r]].ApplyDecision(
          q + static_cast<std::size_t>(r) * kNumActions);
    }
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](int t) { return states[t].ScanDone(); }),
               live.end());
  }
  for (int t = 0; t < num_tasks; ++t) states[t].FinalizeFallback();
  return masks;
}

}  // namespace

FeatureMask GreedySelectSubset(const DuelingNet& net,
                               const std::vector<float>& representation,
                               double max_feature_ratio) {
  return GreedySelectSubsets(net, {representation}, max_feature_ratio)[0];
}

std::vector<FeatureMask> GreedySelectSubsets(
    const DuelingNet& net,
    const std::vector<std::vector<float>>& representations,
    double max_feature_ratio) {
  return GreedyScan(net, representations, max_feature_ratio);
}

}  // namespace pafeat
