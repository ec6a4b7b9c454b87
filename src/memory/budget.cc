#include "memory/budget.h"

#include <cstdlib>
#include <mutex>

#include "common/logging.h"
#include "common/string_util.h"

namespace pafeat {

std::size_t ResolveCacheBudgetBytes(long long configured) {
  if (configured > 0) return static_cast<std::size_t>(configured);
  if (configured == kMemoryBudgetUnlimited) return 0;
  const char* env = std::getenv("PAFEAT_CACHE_BUDGET");
  if (env == nullptr || *env == '\0') return 0;
  long long bytes = 0;
  if (!ParseLongLong(env, &bytes) || bytes < 0) {
    // Every reward cache resolves its budget; the process warns once.
    static std::once_flag warned;
    std::call_once(warned, [env] {
      PF_LOG(Warning) << "PAFEAT_CACHE_BUDGET=" << env
                      << " is not a whole decimal byte count; reward caches "
                         "are unlimited";
    });
    return 0;
  }
  return static_cast<std::size_t>(bytes);
}

}  // namespace pafeat
