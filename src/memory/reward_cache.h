#ifndef PAFEAT_MEMORY_REWARD_CACHE_H_
#define PAFEAT_MEMORY_REWARD_CACHE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/feature_mask.h"
#include "memory/budget.h"

namespace pafeat {

// Bounded, tiered memoization store for subset rewards (DESIGN.md "Bounded
// memory plane"). One exact-match index (PackedMask -> entry) spans two
// tiers:
//
//   - hot tier: entries published or touched in the current epoch. The sweep
//     that closes an epoch never evicts them, so values the running
//     iteration depends on stay resident regardless of how tight the budget
//     is (the budget may be overshot by the hot set's size).
//   - evictable tier: older entries, laid out in a slab walked by a clock
//     (second-chance) hand. A hit sets the entry's reference bit; the sweep
//     clears bits on its first pass over an entry and evicts on the second.
//
// Determinism: eviction happens only at epoch boundaries (AdvanceEpoch — a
// serial point of the training loop, or the automatic publish-count trigger
// for non-training users), and the entries published during an epoch join
// the slab sorted by key. Publish *order* under concurrent misses is
// timing-dependent, but the per-epoch hit set and publish set are not — so
// slab layout, the hand position, the free-slot stack and therefore the
// whole eviction sequence are identical at any thread count.
//
// Concurrency: one mutex guards all state; reward values are computed
// outside the lock by the caller. The in-flight key set dedups concurrent
// misses on one key (stampede control): the first caller claims the key and
// computes, later arrivals wait on the condition variable, re-probe, and
// count as hits.
//
// Telemetry is double-booked: running totals (never reset; the historical
// cache_hits/cache_misses contract) and a window drained by TakeTraffic at
// serial points. Every resolution lands in exactly one window at the moment
// it resolves, so a stampede waiter that wakes after an iteration boundary
// is attributed to the iteration that drains it — never lost.
class TieredRewardCache {
 public:
  using Key = PackedMask;

  // byte_budget 0 = unbounded. With manual epoch control off (the default)
  // the cache closes an epoch by itself every kAutoSweepPublishes publishes,
  // keeping non-training users bounded; a training loop calls
  // SetManualEpochControl(true) and drives AdvanceEpoch from its own serial
  // point instead.
  explicit TieredRewardCache(std::size_t byte_budget);

  enum class Probe { kHit, kClaimed };

  // Probes the cache. kHit: *value holds the cached reward (waiting out a
  // concurrent computation of the same key also resolves here). kClaimed:
  // the key is absent and this caller now owns its computation — it must
  // call Publish with the result (every waiter blocks until it does).
  Probe AcquireOrWait(const Key& key, double* value);

  // Publishes the value for a key claimed by AcquireOrWait and wakes
  // waiters. The entry is immediately readable through the index (pending
  // tier) and graduates into the eviction slab at the next epoch boundary.
  void Publish(Key key, double value);

  // Closes the current epoch at a serial point: graduates pending publishes
  // into the slab in sorted-key order, then runs the clock sweep down to the
  // byte budget.
  void AdvanceEpoch();

  void SetManualEpochControl(bool manual);

  // Drains the telemetry window (see class comment).
  MemoryTraffic TakeTraffic();

  // Running totals.
  long long total_hits() const;
  long long total_misses() const;
  long long total_evictions() const;

  std::size_t bytes() const;
  // Resident entries, slab plus pending. No library code reads it: it is
  // the budget tests' resident-count hook, checked against ExportEntries.
  std::size_t live_entries() const;

  // Persistence: exports every resident entry (slab in slot order, then
  // pending sorted by key), and imports an entry directly into the slab
  // (skipped if the key is already resident or in flight). Imports count as
  // neither hits nor misses.
  void ExportEntries(std::vector<std::pair<Key, double>>* out) const;
  void ImportEntry(Key key, double value);

  static constexpr int kAutoSweepPublishes = 1024;

 private:
  struct Entry {
    Key key;
    double value = 0.0;
    std::uint64_t touched_epoch = 0;
    bool referenced = false;
    bool live = false;
  };

  // Index values tag which tier holds the entry.
  static constexpr std::uint32_t kPendingTag = 0x80000000u;

  Entry& EntryAt(std::uint32_t index);
  std::size_t EntryBytes(const Key& key) const;
  std::uint32_t GraduateLocked(Entry entry);
  void AdvanceEpochLocked();
  void SweepLocked();

  const std::size_t byte_budget_;
  mutable std::mutex mutex_;
  std::condition_variable in_flight_cv_;
  std::unordered_map<Key, std::uint32_t, PackedMaskHash> index_;
  std::unordered_set<Key, PackedMaskHash> in_flight_;
  std::vector<Entry> slots_;          // eviction slab (clock order)
  std::vector<std::uint32_t> free_slots_;  // LIFO reuse of evicted slots
  std::vector<Entry> pending_;        // published this epoch, not yet in slab
  std::size_t hand_ = 0;              // clock hand, persists across epochs
  std::uint64_t epoch_ = 0;
  std::size_t bytes_ = 0;
  std::size_t live_entries_ = 0;
  int publishes_since_sweep_ = 0;
  bool manual_epochs_ = false;
  long long total_hits_ = 0;
  long long total_misses_ = 0;
  long long total_evictions_ = 0;
  MemoryTraffic window_;
};

}  // namespace pafeat

#endif  // PAFEAT_MEMORY_REWARD_CACHE_H_
