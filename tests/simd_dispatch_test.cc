#include "tensor/kernels.h"

#include <cstdlib>
#include <tuple>
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

std::vector<SimdCapability> AvailableLevels() {
  std::vector<SimdCapability> levels;
  for (SimdCapability level :
       {SimdCapability::kGeneric, SimdCapability::kAvx2,
        SimdCapability::kAvx512}) {
    if (kernels::SimdCapabilityAvailable(level)) levels.push_back(level);
  }
  return levels;
}

TEST(SimdDispatchTest, NameAndParseRoundTrip) {
  for (SimdCapability level :
       {SimdCapability::kGeneric, SimdCapability::kAvx2,
        SimdCapability::kAvx512}) {
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

// The active level is the probed best clamped down by PAFEAT_SIMD. Under the
// forced-downgrade ctest matrix this test runs once per level: when the
// variable names an available level the clamp must land exactly there; when
// it names a level above the host's best, the clamp is a no-op.
TEST(SimdDispatchTest, ActiveLevelHonorsEnvironmentClamp) {
  const SimdCapability active = kernels::ActiveSimdCapability();
  ASSERT_TRUE(kernels::SimdCapabilityAvailable(active));
  const char* requested = std::getenv("PAFEAT_SIMD");
  if (requested == nullptr) GTEST_SKIP() << "PAFEAT_SIMD not set";
  SimdCapability want = SimdCapability::kGeneric;
  ASSERT_TRUE(kernels::ParseSimdCapability(requested, &want))
      << "matrix passed unparseable PAFEAT_SIMD=" << requested;
  if (kernels::SimdCapabilityAvailable(want)) {
    EXPECT_EQ(active, want) << "clamp to an available level must be exact";
  } else {
    EXPECT_LT(static_cast<int>(active), static_cast<int>(want))
        << "requesting an unavailable level keeps the best available one";
  }
}

// The AVX-512 rowwise core packs two rows' 8-lane accumulators per register
// but replays the AVX2 per-row operation sequence exactly (same FMA lane
// math, same scalar tail, same in-order lane reduction), so the two levels
// must agree bit for bit on every shape — including ragged tails that
// exercise the 8-row, 4-row and single-row paths.
TEST(SimdDispatchTest, RowwiseAvx2AndAvx512AreBitIdentical) {
  if (!kernels::SimdCapabilityAvailable(SimdCapability::kAvx512)) {
    GTEST_SKIP() << "host has no AVX-512";
  }
  for (const auto& [m, n, p] :
       std::vector<std::tuple<int, int, int>>{{1, 1, 1},
                                              {3, 5, 17},
                                              {8, 2, 64},
                                              {9, 7, 33},
                                              {16, 4, 147},
                                              {21, 2, 2043}}) {
    Rng rng(401 + m * 131 + n * 17 + p);
    const std::vector<float> a = RandomVec(static_cast<size_t>(m) * p, &rng);
    const std::vector<float> b = RandomVec(static_cast<size_t>(n) * p, &rng);
    std::vector<float> c2(static_cast<size_t>(m) * n, 0.5f);
    std::vector<float> c5 = c2;
    ASSERT_TRUE(kernels::GemmNTRowwiseAt(SimdCapability::kAvx2, m, n, p,
                                         a.data(), p, b.data(), p, c2.data(),
                                         n));
    ASSERT_TRUE(kernels::GemmNTRowwiseAt(SimdCapability::kAvx512, m, n, p,
                                         a.data(), p, b.data(), p, c5.data(),
                                         n));
    for (size_t i = 0; i < c2.size(); ++i) {
      ASSERT_EQ(c2[i], c5[i]) << "shape (" << m << "," << n << "," << p
                              << ") element " << i;
    }
  }
}

// Every available level's rowwise core must match the dispatched GemmNT on
// sub-transpose-threshold shapes (the single-row contract), up to the level's
// own rounding — for the active level the match is bitwise by construction.
TEST(SimdDispatchTest, RowwiseAtActiveLevelMatchesDispatchedKernel) {
  const SimdCapability active = kernels::ActiveSimdCapability();
  const int m = 6, n = 3, p = 93;  // below the m >= 8 transpose threshold
  Rng rng(77);
  const std::vector<float> a = RandomVec(static_cast<size_t>(m) * p, &rng);
  const std::vector<float> b = RandomVec(static_cast<size_t>(n) * p, &rng);
  std::vector<float> want(static_cast<size_t>(m) * n, 0.0f);
  kernels::GemmNT(m, n, p, a.data(), p, b.data(), p, want.data(), n);
  std::vector<float> got(static_cast<size_t>(m) * n, 0.0f);
  ASSERT_TRUE(kernels::GemmNTRowwiseAt(active, m, n, p, a.data(), p, b.data(),
                                       p, got.data(), n));
  for (size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], want[i]);
}

// Gather keeps a per-level contract: one rounded accumulate per column entry
// in list order. Levels agree with a double-precision reference to float
// tolerance, and each level is self-consistent with the zero-masked full
// product (covered in masked_inference_test at the active level).
TEST(SimdDispatchTest, GatherAtEachLevelMatchesReference) {
  const int m = 5, n = 19, width = 40;
  const std::vector<int> cols = {0, 3, 4, 9, 17, 31, 39};
  const int ncols = static_cast<int>(cols.size());
  Rng rng(1234);
  const std::vector<float> a = RandomVec(static_cast<size_t>(m) * width, &rng);
  const std::vector<float> b =
      RandomVec(static_cast<size_t>(width) * n, &rng);
  std::vector<double> ref(static_cast<size_t>(m) * n, 0.0);
  for (int i = 0; i < m; ++i) {
    for (const int k : cols) {
      for (int j = 0; j < n; ++j) {
        ref[i * n + j] += static_cast<double>(a[i * width + k]) * b[k * n + j];
      }
    }
  }
  for (SimdCapability level : AvailableLevels()) {
    std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
    ASSERT_TRUE(kernels::GemmGatherNNAt(level, m, n, a.data(), width,
                                        cols.data(), ncols, b.data(), n,
                                        c.data(), n));
    for (size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], ref[i], 1e-4)
          << kernels::SimdCapabilityName(level) << " element " << i;
    }
  }
}

TEST(SimdDispatchTest, UnavailableLevelLeavesOutputUntouched) {
  float c = 3.25f;
  const float a = 1.0f, b = 2.0f;
  if (!kernels::SimdCapabilityAvailable(SimdCapability::kAvx512)) {
    EXPECT_FALSE(kernels::GemmNTRowwiseAt(SimdCapability::kAvx512, 1, 1, 1, &a,
                                          1, &b, 1, &c, 1));
  }
  EXPECT_EQ(c, 3.25f);
}

}  // namespace
}  // namespace pafeat
