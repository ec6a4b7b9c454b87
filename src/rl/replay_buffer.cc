#include "rl/replay_buffer.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/logging.h"

namespace pafeat {
namespace {

// Fixed per-trajectory charge of the byte accounting (a record header of
// 56 B on LP64). A constant rather than sizeof(Record), so resident-byte
// counts, and with them every budget eviction, stay put when the record
// layout changes.
constexpr std::size_t kTrajectoryChargeBytes = 56;

std::size_t TrajectoryBytes(const Trajectory& trajectory) {
  std::size_t bytes = kTrajectoryChargeBytes;
  for (const Transition& transition : trajectory.transitions) {
    bytes += sizeof(Transition) + transition.state.mask.size() +
             transition.next_state.mask.size();
  }
  return bytes;
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
  // transitions the reader still points into.
  PF_DCHECK_EQ(readers_, 0);
  if (trajectory.transitions.empty()) return;
  Record record;
  record.bytes = TrajectoryBytes(trajectory);
  record.priority = priority;
  num_transitions_ += static_cast<int>(trajectory.transitions.size());
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
  num_transitions_ -=
      static_cast<int>(records_[index].trajectory.transitions.size());
  bytes_ -= records_[index].bytes;
  records_.erase(records_.begin() + static_cast<std::ptrdiff_t>(index));
  ++evictions_;
}

std::vector<const Transition*> ReplayBuffer::SampleTransitions(
    int count, Rng* rng) const {
  PF_CHECK(!empty());
  std::vector<const Transition*> sampled;
  sampled.reserve(count);
  // Two-level pick weighted by trajectory length: one draw over all stored
  // transitions, then a walk in insertion order to the owning trajectory.
  for (int i = 0; i < count; ++i) {
    int index = rng->UniformInt(num_transitions_);
    for (const Record& record : records_) {
      const int len = static_cast<int>(record.trajectory.transitions.size());
      if (index < len) {
        sampled.push_back(&record.trajectory.transitions[index]);
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
