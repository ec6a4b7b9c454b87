#include "ml/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pafeat {
namespace {

// AucScore as it was before the pairwise count, frozen: midranks from an
// indirect sort, AUC = (positive midrank sum - P(P+1)/2) / (P * N).
double MidrankAucReference(const std::vector<float>& scores,
                           const std::vector<float>& labels) {
  const size_t n = scores.size();
  long long positives = 0;
  for (float y : labels) {
    if (y > 0.5f) ++positives;
  }
  const long long negatives = static_cast<long long>(n) - positives;
  if (positives == 0 || negatives == 0) return 0.5;
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return scores[a] < scores[b]; });
  std::vector<double> ranks(n);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double midrank = 0.5 * (i + j) + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = midrank;
    i = j + 1;
  }
  double positive_rank_sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    if (labels[k] > 0.5f) positive_rank_sum += ranks[k];
  }
  return (positive_rank_sum - 0.5 * positives * (positives + 1)) /
         (static_cast<double>(positives) * negatives);
}

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ConfusionTest, CountsAllQuadrants) {
  const std::vector<float> scores = {0.9f, 0.8f, 0.2f, 0.1f};
  const std::vector<float> labels = {1.0f, 0.0f, 1.0f, 0.0f};
  const ConfusionCounts c = ComputeConfusion(scores, labels);
  EXPECT_EQ(c.true_positive, 1);
  EXPECT_EQ(c.false_positive, 1);
  EXPECT_EQ(c.false_negative, 1);
  EXPECT_EQ(c.true_negative, 1);
  EXPECT_DOUBLE_EQ(Precision(c), 0.5);
  EXPECT_DOUBLE_EQ(Recall(c), 0.5);
  EXPECT_DOUBLE_EQ(Accuracy(c), 0.5);
}

TEST(F1Test, PerfectPrediction) {
  const std::vector<float> scores = {0.9f, 0.1f, 0.8f};
  const std::vector<float> labels = {1.0f, 0.0f, 1.0f};
  EXPECT_DOUBLE_EQ(F1Score(scores, labels), 1.0);
}

TEST(F1Test, HandComputedCase) {
  // TP=2, FP=1, FN=1 -> precision 2/3, recall 2/3, F1 = 2/3.
  const std::vector<float> scores = {0.9f, 0.9f, 0.9f, 0.1f, 0.1f};
  const std::vector<float> labels = {1.0f, 1.0f, 0.0f, 1.0f, 0.0f};
  EXPECT_NEAR(F1Score(scores, labels), 2.0 / 3.0, 1e-12);
}

TEST(F1Test, ZeroWhenNothingPredictedPositive) {
  const std::vector<float> scores = {0.1f, 0.2f};
  const std::vector<float> labels = {1.0f, 1.0f};
  EXPECT_DOUBLE_EQ(F1Score(scores, labels), 0.0);
}

TEST(AucTest, PerfectRanking) {
  const std::vector<float> scores = {0.1f, 0.4f, 0.35f, 0.8f};
  const std::vector<float> labels = {0.0f, 0.0f, 0.0f, 1.0f};
  EXPECT_DOUBLE_EQ(AucScore(scores, labels), 1.0);
}

TEST(AucTest, InvertedRankingIsZero) {
  const std::vector<float> scores = {0.9f, 0.1f};
  const std::vector<float> labels = {0.0f, 1.0f};
  EXPECT_DOUBLE_EQ(AucScore(scores, labels), 0.0);
}

TEST(AucTest, HandComputedCase) {
  // Positives at scores {0.8, 0.4}; negatives at {0.6, 0.2}.
  // Pairs: (0.8 vs 0.6)=1, (0.8 vs 0.2)=1, (0.4 vs 0.6)=0, (0.4 vs 0.2)=1
  // -> AUC = 3/4.
  const std::vector<float> scores = {0.8f, 0.4f, 0.6f, 0.2f};
  const std::vector<float> labels = {1.0f, 1.0f, 0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(AucScore(scores, labels), 0.75);
}

TEST(AucTest, TiesCountHalf) {
  // One positive and one negative with identical score -> AUC 0.5.
  const std::vector<float> scores = {0.5f, 0.5f};
  const std::vector<float> labels = {1.0f, 0.0f};
  EXPECT_DOUBLE_EQ(AucScore(scores, labels), 0.5);
}

TEST(AucTest, AllConstantScoresGiveHalf) {
  const std::vector<float> scores = {0.3f, 0.3f, 0.3f, 0.3f};
  const std::vector<float> labels = {1.0f, 0.0f, 1.0f, 0.0f};
  EXPECT_DOUBLE_EQ(AucScore(scores, labels), 0.5);
}

TEST(AucTest, DegenerateSingleClassGivesHalf) {
  const std::vector<float> scores = {0.2f, 0.9f};
  EXPECT_DOUBLE_EQ(AucScore(scores, {1.0f, 1.0f}), 0.5);
  EXPECT_DOUBLE_EQ(AucScore(scores, {0.0f, 0.0f}), 0.5);
}

TEST(AucTest, InvariantToMonotoneTransform) {
  const std::vector<float> scores = {0.1f, 0.5f, 0.3f, 0.9f, 0.7f};
  const std::vector<float> labels = {0.0f, 1.0f, 0.0f, 1.0f, 1.0f};
  std::vector<float> squashed = scores;
  for (float& s : squashed) s = s * s * 10.0f;  // monotone on [0, 1]
  EXPECT_DOUBLE_EQ(AucScore(scores, labels), AucScore(squashed, labels));
}

TEST(AucTest, PairwiseCountMatchesMidrankReferenceBitForBit) {
  // Score sets of 1 to 300 entries drawn four ways: continuous, rounded to
  // eighths (many ties across classes), from {-0, +0, 1} (signed zeros tie),
  // and all equal. Labels are balanced, skewed or a single class. The count
  // must give the frozen midrank form's double exactly, through both
  // AucScore forms.
  Rng rng(0xa0c);
  int checked = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const int n = 1 + rng.UniformInt(300);
    const int kind = trial % 4;
    const double positive_share =
        trial % 7 == 0 ? 0.0 : (trial % 7 == 1 ? 1.0 : rng.Uniform(0.05, 0.95));
    std::vector<float> scores(n), labels(n);
    for (int i = 0; i < n; ++i) {
      const double u = rng.Uniform();
      switch (kind) {
        case 0:
          scores[i] = static_cast<float>(u);
          break;
        case 1:
          scores[i] = std::round(static_cast<float>(u) * 8.0f) / 8.0f;
          break;
        case 2:
          scores[i] = u < 0.4 ? -0.0f : (u < 0.8 ? 0.0f : 1.0f);
          break;
        default:
          scores[i] = 0.375f;
          break;
      }
      labels[i] = rng.Bernoulli(positive_share) ? 1.0f : 0.0f;
    }
    const double want = MidrankAucReference(scores, labels);
    ASSERT_TRUE(SameDouble(AucScore(scores, labels), want))
        << "trial " << trial << " n=" << n << " kind " << kind << ": "
        << AucScore(scores, labels) << " vs " << want;
    std::vector<float> scratch(n);
    ASSERT_TRUE(SameDouble(
        AucScore(n, scores.data(), labels.data(), scratch.data()), want))
        << "trial " << trial;
    ++checked;
  }
  EXPECT_EQ(checked, 600);
  // Hand cases: ties across classes, one class, signed zeros.
  const std::vector<std::vector<float>> hand_scores = {
      {0.2f, 0.5f, 0.5f, 0.8f}, {0.4f, 0.4f, 0.4f, 0.4f},
      {-0.0f, 0.0f, -0.0f, 0.0f}, {0.1f, 0.9f, 0.1f, 0.9f}};
  const std::vector<std::vector<float>> hand_labels = {
      {0.0f, 1.0f, 0.0f, 1.0f}, {0.0f, 1.0f, 0.0f, 1.0f},
      {1.0f, 0.0f, 0.0f, 1.0f}, {1.0f, 1.0f, 1.0f, 1.0f}};
  for (size_t c = 0; c < hand_scores.size(); ++c) {
    EXPECT_TRUE(SameDouble(AucScore(hand_scores[c], hand_labels[c]),
                           MidrankAucReference(hand_scores[c], hand_labels[c])))
        << "hand case " << c;
  }
}

}  // namespace
}  // namespace pafeat
