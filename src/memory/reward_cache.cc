#include "memory/reward_cache.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace pafeat {

TieredRewardCache::TieredRewardCache(std::size_t byte_budget)
    : byte_budget_(byte_budget) {}

TieredRewardCache::Entry& TieredRewardCache::EntryAt(std::uint32_t index) {
  if (index & kPendingTag) return pending_[index & ~kPendingTag];
  return slots_[index];
}

std::size_t TieredRewardCache::EntryBytes(const Key& key) const {
  // The key is stored twice (index + entry); the constant approximates the
  // hash-node and slab-slot overhead.
  return 2 * key.size() * sizeof(std::uint64_t) + 96;
}

TieredRewardCache::Probe TieredRewardCache::AcquireOrWait(const Key& key,
                                                          double* value) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      Entry& entry = EntryAt(it->second);
      entry.referenced = true;
      entry.touched_epoch = epoch_;
      ++total_hits_;
      ++window_.hits;
      *value = entry.value;
      return Probe::kHit;
    }
    // Claim the key if nobody is computing it; otherwise wait for that
    // thread and re-probe (the wake-up path counts as a hit).
    if (in_flight_.insert(key).second) return Probe::kClaimed;
    in_flight_cv_.wait(lock);
  }
}

void TieredRewardCache::Publish(Key key, double value) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++total_misses_;
    ++window_.misses;
    in_flight_.erase(key);
    Entry entry;
    entry.value = value;
    entry.touched_epoch = epoch_;
    entry.referenced = true;
    entry.live = true;
    bytes_ += EntryBytes(key);
    ++live_entries_;
    const std::uint32_t pending_index =
        static_cast<std::uint32_t>(pending_.size());
    PF_CHECK_LT(pending_index, kPendingTag);
    index_.emplace(key, kPendingTag | pending_index);
    entry.key = std::move(key);
    pending_.push_back(std::move(entry));
    ++publishes_since_sweep_;
    if (!manual_epochs_ && publishes_since_sweep_ >= kAutoSweepPublishes) {
      AdvanceEpochLocked();
    }
  }
  in_flight_cv_.notify_all();
}

std::uint32_t TieredRewardCache::GraduateLocked(Entry entry) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(entry);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    PF_CHECK_LT(slot, kPendingTag);
    slots_.push_back(std::move(entry));
  }
  index_[slots_[slot].key] = slot;
  return slot;
}

void TieredRewardCache::AdvanceEpochLocked() {
  publishes_since_sweep_ = 0;
  if (!pending_.empty()) {
    // Graduate the epoch's publishes in sorted-key order: the publish *set*
    // per epoch is deterministic, the completion order is not — sorting
    // makes slot assignment (and every later eviction decision that depends
    // on it) thread-count invariant.
    std::vector<std::uint32_t> order(pending_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return pending_[a].key < pending_[b].key;
              });
    for (std::uint32_t p : order) GraduateLocked(std::move(pending_[p]));
    pending_.clear();
  }
  SweepLocked();
  ++epoch_;
}

void TieredRewardCache::SweepLocked() {
  if (byte_budget_ == 0 || slots_.empty()) return;
  // Two full laps with no eviction means everything left is hot or
  // freshly-unreferenced — stop and accept the overshoot rather than spin.
  const std::size_t lap = slots_.size();
  std::size_t scanned_since_evict = 0;
  while (bytes_ > byte_budget_ && scanned_since_evict < 2 * lap) {
    if (hand_ >= slots_.size()) hand_ = 0;
    Entry& entry = slots_[hand_];
    ++hand_;
    if (!entry.live || entry.touched_epoch == epoch_) {
      ++scanned_since_evict;
      continue;
    }
    if (entry.referenced) {
      entry.referenced = false;
      ++scanned_since_evict;
      continue;
    }
    bytes_ -= EntryBytes(entry.key);
    index_.erase(entry.key);
    entry.live = false;
    entry.key.clear();
    entry.key.shrink_to_fit();
    free_slots_.push_back(static_cast<std::uint32_t>(hand_ - 1));
    --live_entries_;
    ++total_evictions_;
    ++window_.evictions;
    scanned_since_evict = 0;
  }
}

void TieredRewardCache::AdvanceEpoch() {
  std::lock_guard<std::mutex> lock(mutex_);
  AdvanceEpochLocked();
}

void TieredRewardCache::SetManualEpochControl(bool manual) {
  std::lock_guard<std::mutex> lock(mutex_);
  manual_epochs_ = manual;
}

MemoryTraffic TieredRewardCache::TakeTraffic() {
  std::lock_guard<std::mutex> lock(mutex_);
  const MemoryTraffic drained = window_;
  window_ = MemoryTraffic{};
  return drained;
}

long long TieredRewardCache::total_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_hits_;
}

long long TieredRewardCache::total_misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_misses_;
}

long long TieredRewardCache::total_evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_evictions_;
}

std::size_t TieredRewardCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::size_t TieredRewardCache::live_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_entries_;
}

void TieredRewardCache::ExportEntries(
    std::vector<std::pair<Key, double>>* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out->clear();
  out->reserve(live_entries_);
  for (const Entry& entry : slots_) {
    if (entry.live) out->emplace_back(entry.key, entry.value);
  }
  // Pending entries are exported in sorted-key order — the order they would
  // graduate in — so exports taken between epochs are still deterministic.
  std::vector<const Entry*> pending;
  pending.reserve(pending_.size());
  for (const Entry& entry : pending_) pending.push_back(&entry);
  std::sort(pending.begin(), pending.end(),
            [](const Entry* a, const Entry* b) { return a->key < b->key; });
  for (const Entry* entry : pending) {
    out->emplace_back(entry->key, entry->value);
  }
}

void TieredRewardCache::ImportEntry(Key key, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_.count(key) > 0 || in_flight_.count(key) > 0) return;
  Entry entry;
  entry.value = value;
  entry.touched_epoch = epoch_;
  entry.referenced = true;
  entry.live = true;
  bytes_ += EntryBytes(key);
  ++live_entries_;
  entry.key = std::move(key);
  GraduateLocked(std::move(entry));
}

}  // namespace pafeat
