#include "rl/replay_buffer.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/logging.h"

namespace pafeat {
namespace {

// The byte charge: 56 B per trajectory (a record header on LP64), plus per
// step 80 B and two m-byte masks — the two-state transition record the
// buffer held before trajectories were stored as decisions (80 B was its
// sizeof on LP64). Constants rather than sizeof of today's layout, so the
// charge, and with it every budget eviction and the bounded golden, stays
// put when the layout changes. Today's record holds about m B per
// trajectory plus 8 B per step, so the charge bounds it from above.
constexpr std::size_t kTrajectoryChargeBytes = 56;
constexpr std::size_t kStepChargeBytes = 80;

std::size_t TrajectoryChargeBytes(const Trajectory& trajectory) {
  const std::size_t per_step =
      kStepChargeBytes + 2 * trajectory.start.mask.size();
  return kTrajectoryChargeBytes + trajectory.steps.size() * per_step;
}

}  // namespace

ReplayBuffer::ReplayBuffer(int capacity_transitions, std::size_t byte_budget)
    : capacity_transitions_(capacity_transitions), byte_budget_(byte_budget) {
  PF_CHECK_GT(capacity_transitions, 0);
}

void ReplayBuffer::AddTrajectory(Trajectory trajectory) {
  const double priority = trajectory.episode_return;
  AddTrajectory(std::move(trajectory), priority);
}

void ReplayBuffer::AddTrajectory(Trajectory trajectory, double priority) {
  // Mutating while a ReadGuard is registered could evict trajectories whose
  // steps the reader still points into.
  PF_DCHECK_EQ(readers_, 0);
  if (trajectory.steps.empty()) return;
  // Rebuilding a step indexes the start mask by its scan position.
  PF_CHECK_GE(trajectory.start.position, 0);
  PF_CHECK_LE(trajectory.start.position + trajectory.num_steps(),
              static_cast<int>(trajectory.start.mask.size()));
  Record record;
  record.bytes = TrajectoryChargeBytes(trajectory);
  record.priority = priority;
  num_transitions_ += trajectory.num_steps();
  bytes_ += record.bytes;
  record.trajectory = std::move(trajectory);
  records_.push_back(std::move(record));
  while (num_transitions_ > capacity_transitions_ && records_.size() > 1) {
    RemoveAt(0);
  }
  EvictToBudget();
}

void ReplayBuffer::EvictToBudget() {
  PF_DCHECK_EQ(readers_, 0);
  while (byte_budget_ > 0 && bytes_ > byte_budget_ && records_.size() > 1) {
    // Lowest priority first; among equal priorities the oldest (the first
    // in insertion order, since only a strictly lower priority displaces
    // the current victim).
    std::size_t victim = 0;
    for (std::size_t i = 1; i < records_.size(); ++i) {
      if (records_[i].priority < records_[victim].priority) victim = i;
    }
    RemoveAt(victim);
  }
}

void ReplayBuffer::RemoveAt(std::size_t index) {
  num_transitions_ -= records_[index].trajectory.num_steps();
  bytes_ -= records_[index].bytes;
  records_.erase(records_.begin() + static_cast<std::ptrdiff_t>(index));
  ++evictions_;
}

std::vector<StepRef> ReplayBuffer::SampleTransitions(int count,
                                                     Rng* rng) const {
  PF_CHECK(!empty());
  std::vector<StepRef> sampled;
  sampled.reserve(count);
  // Two-level pick weighted by trajectory length: one draw over all stored
  // transitions, then a walk in insertion order to the owning trajectory.
  for (int i = 0; i < count; ++i) {
    int index = rng->UniformInt(num_transitions_);
    for (const Record& record : records_) {
      const int len = record.trajectory.num_steps();
      if (index < len) {
        sampled.push_back({&record.trajectory, index});
        break;
      }
      index -= len;
    }
  }
  PF_CHECK_EQ(static_cast<int>(sampled.size()), count);
  return sampled;
}

std::vector<const Trajectory*> ReplayBuffer::RecentTrajectories(
    int count) const {
  std::vector<const Trajectory*> recent;
  const int available = num_trajectories();
  const int take = std::min(count, available);
  for (int i = available - take; i < available; ++i) {
    recent.push_back(&records_[i].trajectory);
  }
  return recent;
}

void ReplayBuffer::ForEachStored(
    const std::function<void(const Trajectory&, double priority)>& fn) const {
  for (const Record& record : records_) fn(record.trajectory, record.priority);
}

}  // namespace pafeat
