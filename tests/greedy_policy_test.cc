#include "core/greedy_policy.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/explain.h"

namespace pafeat {
namespace {

DuelingNet MakeNet(int num_features, uint64_t seed) {
  DuelingNetConfig config;
  config.input_dim = 2 * num_features + 3;
  config.trunk_hidden = {16};
  Rng rng(seed);
  return DuelingNet(config, &rng);
}

TEST(GreedyPolicyTest, RespectsBudget) {
  const int m = 12;
  DuelingNet net = MakeNet(m, 3);
  std::vector<float> repr(m, 0.3f);
  for (double mfr : {0.25, 0.5, 1.0}) {
    const FeatureMask mask = GreedySelectSubset(net, repr, mfr);
    EXPECT_LE(MaskCount(mask), std::max(1, static_cast<int>(mfr * m)));
    EXPECT_GE(MaskCount(mask), 1);  // never empty
  }
}

TEST(GreedyPolicyTest, DeterministicForSameNetAndRepr) {
  const int m = 9;
  DuelingNet net = MakeNet(m, 5);
  std::vector<float> repr(m);
  Rng rng(6);
  for (float& v : repr) v = static_cast<float>(rng.Uniform());
  EXPECT_EQ(GreedySelectSubset(net, repr, 0.5),
            GreedySelectSubset(net, repr, 0.5));
}

TEST(GreedyPolicyTest, EmptyGreedySelectionFallsBackToTopReprFeature) {
  // Force a network that never selects: value/advantage heads initialized,
  // then biased so Q(deselect) always wins.
  const int m = 6;
  DuelingNetConfig config;
  config.input_dim = 2 * m + 3;
  config.trunk_hidden = {4};
  Rng rng(7);
  DuelingNet net(config, &rng);
  // Overwrite all parameters with zeros, then bias action 0 upward via the
  // advantage head's bias (last parameter tensors).
  std::vector<float> params(net.NumParams(), 0.0f);
  ASSERT_TRUE(net.DeserializeParams(params));
  // With all-zero parameters Q is identical for both actions, so the strict
  // '>' in the greedy rule never selects -> the fallback must kick in.
  std::vector<float> repr = {0.1f, 0.2f, 0.9f, 0.3f, 0.1f, 0.0f};
  const FeatureMask mask = GreedySelectSubset(net, repr, 0.5);
  EXPECT_EQ(MaskCount(mask), 1);
  EXPECT_EQ(mask[2], 1);  // the highest-relevance feature
}

// The carried lock-step scan against the full-forward one: masks rebuilt
// from ExplainSelection's decisions (one whole-observation Predict per
// position) plus the empty-subset fallback must equal GreedySelectSubsets'
// masks, for several tasks sharing each step's batch, at every m mod 8.
TEST(GreedyPolicyTest, CarriedScanMatchesExplainSelection) {
  for (int m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 103, 520}) {
    DuelingNetConfig config;
    config.input_dim = 2 * m + 3;
    config.trunk_hidden = {32, 16};
    Rng rng(0x5ca1 + m);
    const DuelingNet net(config, &rng);
    std::vector<std::vector<float>> reprs;
    for (int t = 0; t < 4; ++t) {
      std::vector<float> repr(m);
      for (float& v : repr) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
      reprs.push_back(repr);
    }
    reprs.push_back(std::vector<float>(m, 0.37f));
    for (double ratio : {0.1, 0.5, 1.0}) {
      const std::vector<FeatureMask> masks =
          GreedySelectSubsets(net, reprs, ratio);
      ASSERT_EQ(masks.size(), reprs.size());
      for (std::size_t t = 0; t < reprs.size(); ++t) {
        FeatureMask expected(m, 0);
        for (const FeatureDecision& decision :
             ExplainSelection(net, reprs[t], ratio)) {
          expected[decision.feature] = decision.selected ? 1 : 0;
        }
        if (MaskCount(expected) == 0) {
          const auto best =
              std::max_element(reprs[t].begin(), reprs[t].end());
          expected[best - reprs[t].begin()] = 1;
        }
        EXPECT_EQ(masks[t], expected)
            << "m=" << m << " ratio=" << ratio << " task " << t;
      }
    }
  }
}

TEST(GreedyPolicyDeathTest, RejectsMismatchedDimensions) {
  DuelingNet net = MakeNet(8, 9);
  std::vector<float> wrong_repr(5, 0.1f);
  EXPECT_DEATH(GreedySelectSubset(net, wrong_repr, 0.5), "Check failed");
}

}  // namespace
}  // namespace pafeat
