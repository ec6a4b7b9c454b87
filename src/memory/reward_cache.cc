#include "memory/reward_cache.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace pafeat {

// The charge of one entry is a fixed formula, not a measurement: the key
// twice plus 96 B, which is what the keyed-node layout this cache replaced
// held (an index node and a slab entry, each with its own copy of the key).
// It books more than twice what an entry holds now. It stays because the
// charge decides every budget eviction: re-basing it would move which
// entries a binding budget keeps, and with them every bounded result.
TieredRewardCache::TieredRewardCache(std::size_t byte_budget, int key_words)
    : byte_budget_(byte_budget),
      words_(static_cast<std::size_t>(key_words)),
      entry_bytes_(2 * words_ * sizeof(std::uint64_t) + 96) {
  PF_CHECK_GT(key_words, 0);
}

const std::uint64_t* TieredRewardCache::KeyAt(std::uint32_t ref) const {
  if (ref & kPendingTag) {
    return pending_keys_.data() + (ref & ~kPendingTag) * words_;
  }
  return chunks_[ref >> kChunkShift].keys.data() +
         (ref & (kChunkSlots - 1)) * words_;
}

TieredRewardCache::SlotMeta& TieredRewardCache::MetaAt(std::uint32_t slot) {
  return chunks_[slot >> kChunkShift].meta[slot & (kChunkSlots - 1)];
}

bool TieredRewardCache::KeyEquals(std::uint32_t ref,
                                  const std::uint64_t* key) const {
  return std::equal(key, key + words_, KeyAt(ref));
}

bool TieredRewardCache::KeyLess(const std::uint64_t* a,
                                const std::uint64_t* b) const {
  return std::lexicographical_compare(a, a + words_, b, b + words_);
}

std::size_t TieredRewardCache::Home(const std::uint64_t* key) const {
  return HashPackedWords(key, words_) & (index_.size() - 1);
}

std::uint32_t TieredRewardCache::FindLocked(const std::uint64_t* key) const {
  if (index_.empty()) return kNoRef;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t b = Home(key);; b = (b + 1) & mask) {
    const std::uint32_t ref = index_[b];
    if (ref == kNoRef || KeyEquals(ref, key)) return ref;
  }
}

std::size_t TieredRewardCache::BucketOfLocked(
    std::uint32_t ref, const std::uint64_t* key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t b = Home(key);
  while (index_[b] != ref) {
    PF_DCHECK(index_[b] != kNoRef);
    b = (b + 1) & mask;
  }
  return b;
}

void TieredRewardCache::InsertRefLocked(std::uint32_t ref) {
  if (2 * (index_refs_ + 1) > index_.size()) GrowIndexLocked();
  const std::size_t mask = index_.size() - 1;
  std::size_t b = Home(KeyAt(ref));
  while (index_[b] != kNoRef) b = (b + 1) & mask;
  index_[b] = ref;
  ++index_refs_;
}

void TieredRewardCache::GrowIndexLocked() {
  std::vector<std::uint32_t> old(std::max<std::size_t>(16, 2 * index_.size()),
                                 kNoRef);
  old.swap(index_);
  const std::size_t mask = index_.size() - 1;
  for (const std::uint32_t ref : old) {
    if (ref == kNoRef) continue;
    std::size_t b = Home(KeyAt(ref));
    while (index_[b] != kNoRef) b = (b + 1) & mask;
    index_[b] = ref;
  }
}

// Backward-shift deletion: every later ref of the probe run whose home does
// not lie between the hole and itself moves back into the hole, so lookups
// never need tombstones.
void TieredRewardCache::EraseBucketLocked(std::size_t bucket) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = bucket;
  for (std::size_t b = (hole + 1) & mask; index_[b] != kNoRef;
       b = (b + 1) & mask) {
    const std::size_t home = Home(KeyAt(index_[b]));
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      index_[hole] = index_[b];
      hole = b;
    }
  }
  index_[hole] = kNoRef;
  --index_refs_;
}

std::size_t TieredRewardCache::FindClaimLocked(
    const std::uint64_t* key) const {
  std::size_t c = 0;
  while (c < claim_busy_.size() &&
         !(claim_busy_[c] &&
           std::equal(key, key + words_, claim_keys_.data() + c * words_))) {
    ++c;
  }
  return c;
}

TieredRewardCache::Probe TieredRewardCache::AcquireOrWait(const Key& key,
                                                          double* value) {
  PF_CHECK_EQ(key.size(), words_);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const std::uint32_t ref = FindLocked(key.data());
    if (ref != kNoRef) {
      // A pending entry was published this epoch and is already marked
      // touched and referenced.
      if (ref & kPendingTag) {
        *value = pending_values_[ref & ~kPendingTag];
      } else {
        SlotMeta& meta = MetaAt(ref);
        meta.referenced = 1;
        meta.touched_epoch = epoch_;
        *value = meta.value;
      }
      ++total_hits_;
      ++window_.hits;
      return Probe::kHit;
    }
    // Claim the key if nobody is computing it; otherwise wait for that
    // thread and re-probe (the wake-up path counts as a hit).
    if (FindClaimLocked(key.data()) == claim_busy_.size()) {
      std::size_t claim = 0;
      while (claim < claim_busy_.size() && claim_busy_[claim]) ++claim;
      if (claim == claim_busy_.size()) {
        claim_busy_.push_back(0);
        claim_keys_.resize(claim_keys_.size() + words_);
      }
      std::copy(key.begin(), key.end(), claim_keys_.data() + claim * words_);
      claim_busy_[claim] = 1;
      return Probe::kClaimed;
    }
    in_flight_cv_.wait(lock);
  }
}

void TieredRewardCache::Publish(const Key& key, double value) {
  PF_CHECK_EQ(key.size(), words_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++total_misses_;
    ++window_.misses;
    const std::size_t claim = FindClaimLocked(key.data());
    if (claim < claim_busy_.size()) claim_busy_[claim] = 0;
    bytes_ += entry_bytes_;
    ++live_entries_;
    const std::uint32_t pending_index =
        static_cast<std::uint32_t>(pending_values_.size());
    PF_CHECK_LT(pending_index, kNoRef & ~kPendingTag);
    pending_keys_.insert(pending_keys_.end(), key.begin(), key.end());
    pending_values_.push_back(value);
    InsertRefLocked(kPendingTag | pending_index);
    ++publishes_since_sweep_;
    if (!manual_epochs_ && publishes_since_sweep_ >= kAutoSweepPublishes) {
      AdvanceEpochLocked();
    }
  }
  in_flight_cv_.notify_all();
}

std::uint32_t TieredRewardCache::StoreInSlabLocked(const std::uint64_t* key,
                                                   double value) {
  SlotMeta meta;
  meta.value = value;
  meta.touched_epoch = epoch_;
  meta.referenced = 1;
  meta.live = 1;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    Chunk& chunk = chunks_[slot >> kChunkShift];
    const std::size_t offset = slot & (kChunkSlots - 1);
    std::copy(key, key + words_, chunk.keys.data() + offset * words_);
    chunk.meta[offset] = meta;
  } else {
    slot = slot_count_;
    PF_CHECK_LT(slot, kPendingTag);
    if ((slot & (kChunkSlots - 1)) == 0) {
      Chunk chunk;
      chunk.keys.reserve(kChunkSlots * words_);
      chunk.meta.reserve(kChunkSlots);
      chunks_.push_back(std::move(chunk));
    }
    Chunk& chunk = chunks_.back();
    chunk.keys.insert(chunk.keys.end(), key, key + words_);
    chunk.meta.push_back(meta);
    ++slot_count_;
  }
  return slot;
}

void TieredRewardCache::SortPendingLocked(
    std::vector<std::uint32_t>* order) const {
  order->resize(pending_values_.size());
  std::iota(order->begin(), order->end(), 0u);
  std::sort(order->begin(), order->end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return KeyLess(KeyAt(kPendingTag | a), KeyAt(kPendingTag | b));
            });
}

void TieredRewardCache::AdvanceEpochLocked() {
  publishes_since_sweep_ = 0;
  if (!pending_values_.empty()) {
    // Graduate the epoch's publishes in sorted-key order: the publish *set*
    // per epoch is deterministic, the completion order is not — sorting
    // makes slot assignment (and every later eviction decision that depends
    // on it) thread-count invariant. Each graduation rewrites its index ref
    // in place.
    SortPendingLocked(&graduation_order_);
    for (const std::uint32_t p : graduation_order_) {
      const std::uint64_t* key = KeyAt(kPendingTag | p);
      const std::uint32_t slot = StoreInSlabLocked(key, pending_values_[p]);
      index_[BucketOfLocked(kPendingTag | p, key)] = slot;
    }
    pending_keys_.clear();
    pending_values_.clear();
  }
  SweepLocked();
  ++epoch_;
}

void TieredRewardCache::SweepLocked() {
  if (byte_budget_ == 0 || slot_count_ == 0) return;
  // Two full laps with no eviction means everything left is hot or
  // freshly-unreferenced — stop and accept the overshoot rather than spin.
  const std::size_t lap = slot_count_;
  std::size_t scanned_since_evict = 0;
  while (bytes_ > byte_budget_ && scanned_since_evict < 2 * lap) {
    if (hand_ >= slot_count_) hand_ = 0;
    const std::uint32_t slot = static_cast<std::uint32_t>(hand_);
    ++hand_;
    SlotMeta& meta = MetaAt(slot);
    if (!meta.live || meta.touched_epoch == epoch_) {
      ++scanned_since_evict;
      continue;
    }
    if (meta.referenced) {
      meta.referenced = 0;
      ++scanned_since_evict;
      continue;
    }
    bytes_ -= entry_bytes_;
    EraseBucketLocked(BucketOfLocked(slot, KeyAt(slot)));
    meta.live = 0;
    free_slots_.push_back(slot);
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
  for (std::uint32_t slot = 0; slot < slot_count_; ++slot) {
    const SlotMeta& meta =
        chunks_[slot >> kChunkShift].meta[slot & (kChunkSlots - 1)];
    if (!meta.live) continue;
    const std::uint64_t* key = KeyAt(slot);
    out->emplace_back(Key(key, key + words_), meta.value);
  }
  // Pending entries are exported in sorted-key order — the order they would
  // graduate in — so exports taken between epochs are still deterministic.
  std::vector<std::uint32_t> order;
  SortPendingLocked(&order);
  for (const std::uint32_t p : order) {
    const std::uint64_t* key = KeyAt(kPendingTag | p);
    out->emplace_back(Key(key, key + words_), pending_values_[p]);
  }
}

void TieredRewardCache::ImportEntry(const Key& key, double value) {
  PF_CHECK_EQ(key.size(), words_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (FindLocked(key.data()) != kNoRef ||
      FindClaimLocked(key.data()) < claim_busy_.size()) {
    return;
  }
  bytes_ += entry_bytes_;
  ++live_entries_;
  InsertRefLocked(StoreInSlabLocked(key.data(), value));
}

}  // namespace pafeat
