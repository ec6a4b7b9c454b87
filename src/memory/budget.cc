#include "memory/budget.h"

#include <cstdlib>

namespace pafeat {

std::size_t ResolveCacheBudgetBytes(long long configured) {
  if (configured > 0) return static_cast<std::size_t>(configured);
  if (configured == kMemoryBudgetUnlimited) return 0;
  const char* env = std::getenv("PAFEAT_CACHE_BUDGET");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long long bytes = std::strtoll(env, &end, 10);
  if (end == env || bytes <= 0) return 0;
  return static_cast<std::size_t>(bytes);
}

}  // namespace pafeat
