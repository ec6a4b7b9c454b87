#ifndef PAFEAT_MEMORY_REWARD_CACHE_H_
#define PAFEAT_MEMORY_REWARD_CACHE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "data/feature_mask.h"
#include "memory/budget.h"

namespace pafeat {

// Bounded, tiered memoization store for subset rewards (DESIGN.md "Bounded
// memory plane"). One exact-match index (key -> entry) spans two tiers:
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
// Layout: every key has the width fixed at construction and is stored once.
// Slab keys sit in fixed-size chunks (growth never copies a key), with each
// slot's value, touched epoch and flags in a parallel array; an evicted slot
// keeps its storage for LIFO reuse. The pending tier is a flat key array and
// its values, cleared at every epoch close with its capacity kept. The index
// is open-addressed (linear probing, load at most 1/2) over 32-bit refs — a
// slot id, or a pending index tagged kPendingTag — and compares the stored
// words, so no entry owns a heap node.
//
// Concurrency: one mutex guards all state; reward values are computed
// outside the lock by the caller. The in-flight claims dedup concurrent
// misses on one key (stampede control): the first caller claims the key and
// computes, later arrivals wait on the condition variable, re-probe, and
// count as hits. A claim holds its key in one of a few reused buffers, at
// most one per thread that is missing at the same time.
//
// Telemetry is double-booked: running totals (never reset; the historical
// cache_hits/cache_misses contract) and a window drained by TakeTraffic at
// serial points. Every resolution lands in exactly one window at the moment
// it resolves, so a stampede waiter that wakes after an iteration boundary
// is attributed to the iteration that drains it — never lost.
class TieredRewardCache {
 public:
  using Key = PackedMask;

  // byte_budget 0 = unbounded. Every key passed in must be `key_words` words
  // wide (a PackMask of the task's mask); any other width is a programming
  // error. With manual epoch control off (the default) the cache closes an
  // epoch by itself every kAutoSweepPublishes publishes, keeping
  // non-training users bounded; a training loop calls
  // SetManualEpochControl(true) and drives AdvanceEpoch from its own serial
  // point instead.
  TieredRewardCache(std::size_t byte_budget, int key_words);

  enum class Probe { kHit, kClaimed };

  // Probes the cache. kHit: *value holds the cached reward (waiting out a
  // concurrent computation of the same key also resolves here). kClaimed:
  // the key is absent and this caller now owns its computation — it must
  // call Publish with the result (every waiter blocks until it does).
  Probe AcquireOrWait(const Key& key, double* value);

  // Publishes the value for a key claimed by AcquireOrWait and wakes
  // waiters. The entry is immediately readable through the index (pending
  // tier) and graduates into the eviction slab at the next epoch boundary.
  void Publish(const Key& key, double value);

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

  // Charged bytes of the resident entries: EntryBytes() each.
  std::size_t bytes() const;
  // Resident entries, slab plus pending. No library code reads it: it is
  // the budget tests' resident-count hook, checked against ExportEntries.
  std::size_t live_entries() const;

  // Persistence: exports every resident entry (slab in slot order, then
  // pending sorted by key), and imports an entry directly into the slab
  // (skipped if the key is already resident or in flight). Imports count as
  // neither hits nor misses.
  void ExportEntries(std::vector<std::pair<Key, double>>* out) const;
  void ImportEntry(const Key& key, double value);

  static constexpr int kAutoSweepPublishes = 1024;

 private:
  struct SlotMeta {
    double value;
    std::uint64_t touched_epoch : 62;
    std::uint64_t referenced : 1;
    std::uint64_t live : 1;
  };
  // A run of kChunkSlots slab slots: keys (words_ each) and their metadata,
  // reserved whole at creation so appending never moves a slot.
  struct Chunk {
    std::vector<std::uint64_t> keys;
    std::vector<SlotMeta> meta;
  };

  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  // Index refs: a slot id, or kPendingTag | pending index; kNoRef marks an
  // empty index bucket (and a failed lookup).
  static constexpr std::uint32_t kPendingTag = 0x80000000u;
  static constexpr std::uint32_t kNoRef = 0xffffffffu;

  const std::uint64_t* KeyAt(std::uint32_t ref) const;
  SlotMeta& MetaAt(std::uint32_t slot);
  bool KeyEquals(std::uint32_t ref, const std::uint64_t* key) const;
  bool KeyLess(const std::uint64_t* a, const std::uint64_t* b) const;
  std::size_t Home(const std::uint64_t* key) const;
  // The ref stored for `key`, or kNoRef.
  std::uint32_t FindLocked(const std::uint64_t* key) const;
  // Bucket of `ref`, whose key is `key`.
  std::size_t BucketOfLocked(std::uint32_t ref,
                             const std::uint64_t* key) const;
  void InsertRefLocked(std::uint32_t ref);
  void EraseBucketLocked(std::size_t bucket);
  void GrowIndexLocked();
  // The claim buffer in flight for `key`, or claim_busy_.size().
  std::size_t FindClaimLocked(const std::uint64_t* key) const;
  // Moves a key and value into a free slot (LIFO) or a new one.
  std::uint32_t StoreInSlabLocked(const std::uint64_t* key, double value);
  void AdvanceEpochLocked();
  void SweepLocked();
  // Pending indices in ascending key order, into `order`.
  void SortPendingLocked(std::vector<std::uint32_t>* order) const;

  const std::size_t byte_budget_;
  const std::size_t words_;
  // The fixed charge of one entry (DESIGN.md "Bounded memory plane").
  const std::size_t entry_bytes_;
  mutable std::mutex mutex_;
  std::condition_variable in_flight_cv_;
  std::vector<std::uint32_t> index_;  // power-of-two buckets of refs
  std::size_t index_refs_ = 0;
  std::vector<Chunk> chunks_;         // eviction slab (clock order)
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;  // LIFO reuse of evicted slots
  std::vector<std::uint64_t> pending_keys_;  // published this epoch
  std::vector<double> pending_values_;
  std::vector<std::uint32_t> graduation_order_;  // reused sort buffer
  std::vector<std::uint64_t> claim_keys_;  // in-flight claim buffers
  std::vector<std::uint8_t> claim_busy_;
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
