#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pafeat {
namespace {

using kernels::SimdCapability;

std::vector<float> RandomVec(size_t size, Rng* rng) {
  std::vector<float> v(size);
  for (float& x : v) x = static_cast<float>(rng->Normal(0.0, 1.0));
  return v;
}

TEST(SimdDispatchTest, NameAndParseRoundTrip) {
  for (SimdCapability level :
       {SimdCapability::kGeneric, SimdCapability::kAvx2}) {
    SimdCapability parsed = static_cast<SimdCapability>(-1);
    ASSERT_TRUE(kernels::ParseSimdCapability(kernels::SimdCapabilityName(level),
                                             &parsed));
    EXPECT_EQ(parsed, level);
  }
  SimdCapability untouched = SimdCapability::kAvx2;
  EXPECT_FALSE(kernels::ParseSimdCapability("sse9", &untouched));
  EXPECT_FALSE(kernels::ParseSimdCapability("neon", &untouched));
  EXPECT_FALSE(kernels::ParseSimdCapability("", &untouched));
  EXPECT_EQ(untouched, SimdCapability::kAvx2);
}

TEST(SimdDispatchTest, GenericAlwaysAvailable) {
  EXPECT_TRUE(kernels::SimdCapabilityAvailable(SimdCapability::kGeneric));
}

// The active level is the best level the CPU reports, clamped down by
// PAFEAT_SIMD. The best level is asked of the CPU here, not through the
// library's probe, so a probe that fell back to generic on an AVX2 host fails
// this test (every other test would pass, since each golden is picked by the
// active level). Under the forced-downgrade ctest matrix this runs once per
// level: a clamp to an available level lands exactly there, a clamp above the
// best and a value that names no level keep the best.
TEST(SimdDispatchTest, ActiveLevelHonorsEnvironmentClamp) {
#if defined(__x86_64__) || defined(_M_X64)
  const SimdCapability best =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
          ? SimdCapability::kAvx2
          : SimdCapability::kGeneric;
#else
  const SimdCapability best = SimdCapability::kGeneric;
#endif
  EXPECT_EQ(kernels::SimdCapabilityAvailable(SimdCapability::kAvx2),
            best == SimdCapability::kAvx2);
  SimdCapability want = best;
  SimdCapability requested = best;
  const char* forced = std::getenv("PAFEAT_SIMD");
  if (forced != nullptr && kernels::ParseSimdCapability(forced, &requested)) {
    want = std::min(best, requested);
  }
  EXPECT_EQ(kernels::SimdCapabilityName(kernels::ActiveSimdCapability()),
            std::string(kernels::SimdCapabilityName(want)))
      << "PAFEAT_SIMD=" << (forced == nullptr ? "(unset)" : forced);
}

// The gather's bit contract at the active level, through dispatch: every
// element of C takes one rounded accumulate per list entry, in list order,
// starting from its old value. At avx2 the accumulate is a fused
// multiply-add; at generic it is a separate multiply and add (the x86-64
// test TU has no FMA to contract them into). The shapes cover the 4-row tile
// and its remainder rows, widths on and off the vector width, an empty list,
// and pool row splits at the largest products.
TEST(SimdDispatchTest, GatherAtEachLevelMatchesReference) {
  const bool fused = kernels::ActiveSimdCapability() == SimdCapability::kAvx2;
  const int features = 1020;
  for (const int m : {1, 3, 4, 128, 130}) {
    for (const int n : {19, 32, 33, 64}) {
      for (const int ncols : {0, 1, 7, 64, 510}) {
        Rng rng(9001 + m * 7919 + n * 131 + ncols);
        const std::vector<float> a =
            RandomVec(static_cast<size_t>(m) * features, &rng);
        const std::vector<float> b =
            RandomVec(static_cast<size_t>(features) * n, &rng);
        std::vector<int> cols = rng.SampleWithoutReplacement(features, ncols);
        std::sort(cols.begin(), cols.end());
        std::vector<float> c = RandomVec(static_cast<size_t>(m) * n, &rng);
        std::vector<float> want = c;
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) {
            float acc = want[static_cast<size_t>(i) * n + j];
            for (const int k : cols) {
              const float x = a[static_cast<size_t>(i) * features + k];
              const float y = b[static_cast<size_t>(k) * n + j];
              acc = fused ? std::fma(x, y, acc) : acc + x * y;
            }
            want[static_cast<size_t>(i) * n + j] = acc;
          }
        }
        kernels::GemmGatherNN(m, n, a.data(), features, cols.data(), ncols,
                              b.data(), n, c.data(), n);
        ASSERT_EQ(std::memcmp(c.data(), want.data(), c.size() * sizeof(float)),
                  0)
            << kernels::SimdCapabilityName(kernels::ActiveSimdCapability())
            << " rows " << m << " width " << n << " columns " << ncols;
      }
    }
  }
}

}  // namespace
}  // namespace pafeat
