#ifndef PAFEAT_MEMORY_BUDGET_H_
#define PAFEAT_MEMORY_BUDGET_H_

#include <cstddef>

namespace pafeat {

// Byte budget of the reward cache (DESIGN.md "Bounded memory plane"),
// resolved through one chain so CI can bound every cache in a process
// without touching call sites:
//
//   configured value  >  PAFEAT_CACHE_BUDGET environment variable (bytes)
//   >  unlimited.
//
// A configured value > 0 is a byte count; exactly 0 is an explicit
// "unlimited" that stops the chain; any negative value means "resolve the
// default chain". The variable must hold a whole decimal byte count (0 is
// unlimited); any other value resolves as if it were unset, and the first
// such resolution in a process logs a warning. The resolved value is
// std::size_t bytes with 0 meaning unlimited. (The replay buffer's budget is
// plain bytes: FeatConfig::replay_budget_bytes.)
inline constexpr long long kMemoryBudgetDefault = -1;
inline constexpr long long kMemoryBudgetUnlimited = 0;

std::size_t ResolveCacheBudgetBytes(long long configured);

// Traffic counters of one telemetry window. Windows are drained at serial
// points (TakeTraffic-style APIs), so every hit/miss/eviction lands in
// exactly one window at the moment it resolves — including stampede waiters
// that resolve after an iteration rollover.
struct MemoryTraffic {
  long long hits = 0;
  long long misses = 0;
  long long evictions = 0;
};

}  // namespace pafeat

#endif  // PAFEAT_MEMORY_BUDGET_H_
