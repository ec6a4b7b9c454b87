#ifndef PAFEAT_RL_REPLAY_BUFFER_H_
#define PAFEAT_RL_REPLAY_BUFFER_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "rl/types.h"

namespace pafeat {

// Bounded FIFO replay buffer of whole trajectories (Algorithm 1 keeps one
// buffer B^k per seen task), sampled uniformly over stored transitions (a
// trajectory's steps). Each trajectory is stored as its start state and its
// decisions (Trajectory), with a priority and a byte charge; under a byte
// budget (DESIGN.md "Bounded memory plane") the lowest-(priority, insertion
// order) trajectories are evicted first. The ITS reads the most recent
// trajectories (Eqn 4a's load module).
//
// Borrow contract: SampleTransitions / RecentTrajectories return raw
// pointers into the stored trajectories, and both mutation entry points —
// AddTrajectory (FIFO capacity eviction) and EvictToBudget (priority-ordered
// byte-budget eviction) — can destroy trajectories those pointers live in.
// Callers that hold sampled pointers across statements (e.g. the learner,
// which samples every update before filling any batch) register the borrow
// with a ReadGuard; the mutation entry points assert (in checked builds)
// that no borrow is outstanding, and pafeat-analyze enforces the same
// contract statically (borrow-across-mutation). The flag is plain state:
// guards must be created and destroyed on the thread that owns the buffer.
class ReplayBuffer {
 public:
  // `byte_budget` = 0 is unbounded.
  explicit ReplayBuffer(int capacity_transitions,
                        std::size_t byte_budget = 0);

  // RAII registration of a borrow window over the buffer's internal
  // storage. Movable so windows can be collected in a vector spanning
  // several buffers.
  class ReadGuard {
   public:
    explicit ReadGuard(const ReplayBuffer& buffer) : buffer_(&buffer) {
      buffer_->BeginRead();
    }
    ~ReadGuard() {
      if (buffer_ != nullptr) buffer_->EndRead();
    }
    ReadGuard(ReadGuard&& other) noexcept : buffer_(other.buffer_) {
      other.buffer_ = nullptr;
    }
    ReadGuard& operator=(ReadGuard&& other) noexcept {
      if (this != &other) {
        if (buffer_ != nullptr) buffer_->EndRead();
        buffer_ = other.buffer_;
        other.buffer_ = nullptr;
      }
      return *this;
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    const ReplayBuffer* buffer_;
  };

  // Stores a trajectory (empty ones are dropped); its priority defaults to
  // the episode return, so budget eviction keeps the best subsets longest.
  // Evicts the oldest trajectories while over the transition capacity
  // (always keeping at least one), then runs EvictToBudget.
  void AddTrajectory(Trajectory trajectory);
  void AddTrajectory(Trajectory trajectory, double priority);

  // Evicts lowest-(priority, insertion order) trajectories until bytes()
  // fits the byte budget, always keeping at least one (no-op when
  // unbounded). A mutation entry point under the borrow contract, exactly
  // like AddTrajectory.
  void EvictToBudget();

  // Samples `count` transitions uniformly (with replacement), each as a
  // (trajectory, step) handle. The handles are only stable until the next
  // mutation — see the borrow contract.
  std::vector<StepRef> SampleTransitions(int count, Rng* rng) const;

  // The most recent `count` trajectories, newest last (fewer if not enough).
  // Same borrow contract as SampleTransitions.
  std::vector<const Trajectory*> RecentTrajectories(int count) const;

  void BeginRead() const { ++readers_; }
  void EndRead() const {
    PF_DCHECK_GT(readers_, 0);
    --readers_;
  }

  // Warm-resume persistence: visits every stored trajectory in insertion
  // order with its priority (checkpoint v3).
  void ForEachStored(
      const std::function<void(const Trajectory&, double priority)>& fn) const;

  int num_transitions() const { return num_transitions_; }
  int num_trajectories() const { return static_cast<int>(records_.size()); }
  bool empty() const { return num_transitions_ == 0; }
  // Charged bytes, the quantity the byte budget bounds: per trajectory
  // 56 B, plus 80 + 2m B per transition. A fixed formula (the size of the
  // two-mask record the buffer once held), not a measurement; it is an
  // upper bound on the bytes the stored trajectories hold.
  std::size_t bytes() const { return bytes_; }
  // Running total of trajectories evicted (FIFO capacity + byte budget).
  long long evictions() const { return evictions_; }

 private:
  struct Record {
    Trajectory trajectory;
    double priority = 0.0;
    std::size_t bytes = 0;
  };

  void RemoveAt(std::size_t index);

  int capacity_transitions_;
  std::size_t byte_budget_;
  std::deque<Record> records_;  // insertion order, oldest first
  int num_transitions_ = 0;
  std::size_t bytes_ = 0;
  long long evictions_ = 0;
  // Outstanding borrow windows (checked builds only assert on it); mutable
  // because registering a read is logically const.
  mutable int readers_ = 0;
};

}  // namespace pafeat

#endif  // PAFEAT_RL_REPLAY_BUFFER_H_
