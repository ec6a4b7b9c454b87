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

// The row-wise dot contract (kernels.h, RowwiseCarryInit) for one output,
// written out at the active level: kRowwiseLanes lanes continued from
// `lanes` over the full blocks [k_begin, pfull), the scalar tail from +0,
// then the lanes added to the tail from lane 0 to the last. Each step is a
// fused multiply-add at avx2 and a separate multiply and add at generic.
float RowwiseChain(const float* a, const float* b, int k_begin, int p,
                   const float* lanes, bool fused) {
  constexpr int kLanes = kernels::kRowwiseLanes;
  const int pfull = p / kLanes * kLanes;
  float acc[kLanes];
  std::copy(lanes, lanes + kLanes, acc);
  for (int k = k_begin; k < pfull; k += kLanes) {
    for (int t = 0; t < kLanes; ++t) {
      acc[t] = fused ? std::fma(a[k + t], b[k + t], acc[t])
                     : acc[t] + a[k + t] * b[k + t];
    }
  }
  float s = 0.0f;
  for (int k = pfull; k < p; ++k) {
    s = fused ? std::fma(a[k], b[k], s) : s + a[k] * b[k];
  }
  for (int t = 0; t < kLanes; ++t) s += acc[t];
  return s;
}

// GemmNTRowwise at the one-row scan's shapes, through dispatch, against the
// chain above from zero lanes. Rows 1-3 take only the path for rows past the
// 4-row interleave, rows 5-7 both; widths cover its four-output groups and
// every remainder, depths the vector width and the scan's 2m + 3 widths.
TEST(SimdDispatchTest, RowwiseAtEachLevelMatchesReference) {
  const bool fused = kernels::ActiveSimdCapability() == SimdCapability::kAvx2;
  const float zero_lanes[kernels::kRowwiseLanes] = {};
  int shape = 0;
  for (const int m : {1, 2, 3, 5, 6, 7}) {
    for (const int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65}) {
      for (const int p : {1, 7, 8, 9, 64, 209, 1043, 2043}) {
        const int lda = p + 1;
        const int ldb = p + 3;
        Rng rng(7001 + m * 7919 + n * 131 + p);
        const std::vector<float> a =
            RandomVec(static_cast<size_t>(m) * lda, &rng);
        const std::vector<float> b =
            RandomVec(static_cast<size_t>(n) * ldb, &rng);
        std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
        if (++shape % 2 == 0) c = RandomVec(c.size(), &rng);
        std::vector<float> want = c;
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) {
            want[static_cast<size_t>(i) * n + j] +=
                RowwiseChain(&a[static_cast<size_t>(i) * lda],
                             &b[static_cast<size_t>(j) * ldb], 0, p,
                             zero_lanes, fused);
          }
        }
        kernels::GemmNTRowwise(m, n, p, a.data(), lda, b.data(), ldb,
                               c.data(), n);
        ASSERT_EQ(std::memcmp(c.data(), want.data(), c.size() * sizeof(float)),
                  0)
            << kernels::SimdCapabilityName(kernels::ActiveSimdCapability())
            << " rows " << m << " outputs " << n << " depth " << p;
      }
    }
  }
}

// RowwiseCarryFinish against the same chain continued from arbitrary carried
// lanes: output counts around its eight-output groups, k_begin at pfull and
// one and two blocks below it, depths with and without a scalar tail.
TEST(SimdDispatchTest, CarryFinishAtEachLevelMatchesReference) {
  constexpr int kLanes = kernels::kRowwiseLanes;
  const bool fused = kernels::ActiveSimdCapability() == SimdCapability::kAvx2;
  int shape = 0;
  for (const int n : {1, 7, 8, 9, 64, 65}) {
    for (const int p : {16, 23, 208, 209, 1040, 1043}) {
      const int pfull = p / kLanes * kLanes;
      for (const int below : {0, 1, 2}) {
        const int k_begin = pfull - below * kLanes;
        const int ldb = p + 5;
        Rng rng(8001 + n * 131 + p * 3 + below);
        const std::vector<float> a = RandomVec(p, &rng);
        const std::vector<float> b =
            RandomVec(static_cast<size_t>(n) * ldb, &rng);
        const std::vector<float> lanes =
            RandomVec(static_cast<size_t>(n) * kLanes, &rng);
        std::vector<float> c(n, 0.0f);
        if (++shape % 2 == 0) c = RandomVec(c.size(), &rng);
        std::vector<float> want = c;
        for (int j = 0; j < n; ++j) {
          want[j] += RowwiseChain(a.data(), &b[static_cast<size_t>(j) * ldb],
                                  k_begin, p, &lanes[static_cast<size_t>(j) *
                                                     kLanes],
                                  fused);
        }
        kernels::RowwiseCarryFinish(n, p, k_begin, a.data(), b.data(), ldb,
                                    lanes.data(), c.data());
        ASSERT_EQ(std::memcmp(c.data(), want.data(), c.size() * sizeof(float)),
                  0)
            << kernels::SimdCapabilityName(kernels::ActiveSimdCapability())
            << " outputs " << n << " depth " << p << " k_begin " << k_begin;
      }
    }
  }
}

}  // namespace
}  // namespace pafeat
