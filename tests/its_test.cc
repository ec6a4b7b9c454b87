#include "core/its.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/masked_dnn.h"
#include "tensor/matrix.h"

namespace pafeat {
namespace {

// Shared evaluator backed by a real classifier on tiny data.
class ItsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(3);
    features_ = Matrix::RandomNormal(150, 4, 1.0f, &rng);
    labels_.resize(150);
    rows_.resize(150);
    for (int r = 0; r < 150; ++r) {
      labels_[r] = features_.At(r, 0) > 0.0f ? 1.0f : 0.0f;
      rows_[r] = r;
    }
    MaskedDnnConfig config;
    config.epochs = 6;
    classifier_ = std::make_unique<MaskedDnnClassifier>(config);
    classifier_->Fit(features_, labels_, rows_, &rng);
    evaluator_ = std::make_unique<SubsetEvaluator>(&features_, labels_,
                                                   classifier_.get());
  }

  Matrix features_;
  std::vector<float> labels_;
  std::vector<int> rows_;
  std::unique_ptr<MaskedDnnClassifier> classifier_;
  std::unique_ptr<SubsetEvaluator> evaluator_;
};

TEST_F(ItsTest, EmptyHistoryMeansMaximumNeed) {
  const TaskProgress progress = ComputeTaskProgress({}, *evaluator_, 0.9);
  EXPECT_DOUBLE_EQ(progress.distance_ratio, 1.0);
  EXPECT_DOUBLE_EQ(progress.uncertainty, 1.0);
}

TEST_F(ItsTest, DistanceRatioMatchesDefinition) {
  const std::vector<FeatureMask> masks = {{1, 0, 0, 0}, {1, 1, 0, 0}};
  const double p_all = evaluator_->FullFeatureReward();
  const TaskProgress progress =
      ComputeTaskProgress(masks, *evaluator_, p_all);
  const double p_avg =
      0.5 * (evaluator_->Reward(masks[0]) + evaluator_->Reward(masks[1]));
  EXPECT_NEAR(progress.distance_ratio, (p_all - p_avg) / p_all, 1e-12);
}

TEST_F(ItsTest, UncertaintyZeroWhenSelectionsIdentical) {
  // Identical subsets -> every p(i) is 0 or 1 -> xi = 1 - (1/m) * m * 0.5 = 0.5?
  // No: |1/2 - p(i)| = 1/2 for all i -> xi = 1 - 1/2 = 1/2... the minimum.
  const std::vector<FeatureMask> masks = {{1, 0, 1, 0}, {1, 0, 1, 0}};
  const TaskProgress progress = ComputeTaskProgress(masks, *evaluator_, 0.9);
  EXPECT_NEAR(progress.uncertainty, 0.5, 1e-12);  // Eqn 7 floor
}

TEST_F(ItsTest, UncertaintyMaximalWhenSelectionsSplit) {
  // Each feature selected in exactly half of the subsets -> p(i) = 1/2
  // -> xi = 1 (maximum instability).
  const std::vector<FeatureMask> masks = {{1, 1, 0, 0}, {0, 0, 1, 1}};
  const TaskProgress progress = ComputeTaskProgress(masks, *evaluator_, 0.9);
  EXPECT_NEAR(progress.uncertainty, 1.0, 1e-12);
}

TEST_F(ItsTest, UncertaintyOrdering) {
  const std::vector<FeatureMask> stable = {{1, 0, 0, 0}, {1, 0, 0, 0},
                                           {1, 0, 0, 0}, {1, 0, 0, 0}};
  const std::vector<FeatureMask> unstable = {{1, 0, 1, 0}, {0, 1, 0, 1},
                                             {1, 1, 0, 0}, {0, 0, 1, 1}};
  const double xi_stable =
      ComputeTaskProgress(stable, *evaluator_, 0.9).uncertainty;
  const double xi_unstable =
      ComputeTaskProgress(unstable, *evaluator_, 0.9).uncertainty;
  EXPECT_LT(xi_stable, xi_unstable);
}

TEST(ScheduleProbabilitiesTest, SingleTaskGetsEverything) {
  const std::vector<double> p = ScheduleProbabilities({TaskProgress{0.5, 0.7}});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
}

TEST(ScheduleProbabilitiesTest, SumsToOne) {
  std::vector<TaskProgress> progress = {
      {0.2, 0.6}, {0.5, 0.9}, {0.05, 0.55}, {0.9, 1.0}};
  const std::vector<double> p = ScheduleProbabilities(progress);
  double total = 0.0;
  for (double v : p) {
    EXPECT_GT(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ScheduleProbabilitiesTest, HarderTaskGetsMoreResources) {
  // Task 1 has both larger headroom and larger uncertainty.
  std::vector<TaskProgress> progress = {{0.1, 0.55}, {0.6, 0.95}};
  const std::vector<double> p = ScheduleProbabilities(progress);
  EXPECT_GT(p[1], p[0]);
}

TEST(ScheduleProbabilitiesTest, EqualProgressMeansUniform) {
  std::vector<TaskProgress> progress(3, TaskProgress{0.3, 0.7});
  const std::vector<double> p = ScheduleProbabilities(progress);
  for (double v : p) EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
}

TEST(ScheduleProbabilitiesTest, NegativeDistanceRatiosDoNotBreak) {
  // Subsets already beat the full-feature baseline on every task.
  std::vector<TaskProgress> progress = {{-0.1, 0.6}, {-0.05, 0.8}};
  const std::vector<double> p = ScheduleProbabilities(progress);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  EXPECT_GT(p[1], p[0]);  // uncertainty still differentiates
}

TEST(ScheduleProbabilitiesTest, AllZeroScoresFallBackToUniform) {
  std::vector<TaskProgress> progress = {{0.0, 0.0}, {0.0, 0.0}};
  const std::vector<double> p = ScheduleProbabilities(progress);
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
}

TEST(ScheduleProbabilitiesTest, FloorPreventsStarvation) {
  // One task with overwhelming need must not drive the others to zero.
  std::vector<TaskProgress> progress = {
      {1.0, 1.0}, {0.0, 0.5}, {0.0, 0.5}, {0.0, 0.5}};
  const std::vector<double> p =
      ScheduleProbabilities(progress, /*temperature=*/0.01,
                            /*min_share_of_uniform=*/0.5);
  for (double v : p) EXPECT_GE(v, 0.5 / 4 - 1e-12);
  EXPECT_GT(p[0], p[1]);  // the needy task still gets the most
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ScheduleProbabilitiesTest, ZeroFloorAllowsConcentration) {
  std::vector<TaskProgress> progress = {{1.0, 1.0}, {0.0, 0.0}};
  const std::vector<double> p =
      ScheduleProbabilities(progress, /*temperature=*/0.01,
                            /*min_share_of_uniform=*/0.0);
  EXPECT_GT(p[0], 0.99);
}

TEST(ScheduleProbabilitiesTest, TemperatureControlsSharpness) {
  std::vector<TaskProgress> progress = {{0.8, 0.9}, {0.2, 0.6}};
  const std::vector<double> sharp =
      ScheduleProbabilities(progress, /*temperature=*/0.05,
                            /*min_share_of_uniform=*/0.0);
  const std::vector<double> soft =
      ScheduleProbabilities(progress, /*temperature=*/5.0,
                            /*min_share_of_uniform=*/0.0);
  EXPECT_GT(sharp[0], soft[0]);
  EXPECT_NEAR(soft[0], 0.5, 0.05);  // high temperature approaches uniform
}

}  // namespace
}  // namespace pafeat
