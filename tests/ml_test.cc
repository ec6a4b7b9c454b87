#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "ml/masked_dnn.h"
#include "ml/metrics.h"
#include "ml/subset_evaluator.h"
#include "tensor/matrix.h"

namespace pafeat {
namespace {

// Linearly separable data: label = 1 iff 2*x0 - x1 > 0.
struct LinearProblem {
  Matrix features;
  std::vector<float> labels;
  std::vector<int> rows;
};

LinearProblem MakeLinearProblem(int n, uint64_t seed) {
  Rng rng(seed);
  LinearProblem problem;
  problem.features = Matrix::RandomNormal(n, 3, 1.0f, &rng);  // x2 is noise
  problem.labels.resize(n);
  problem.rows.resize(n);
  for (int r = 0; r < n; ++r) {
    problem.labels[r] = 2.0f * problem.features.At(r, 0) -
                                problem.features.At(r, 1) >
                            0.0f
                        ? 1.0f
                        : 0.0f;
    problem.rows[r] = r;
  }
  return problem;
}

TEST(LogisticRegressionTest, LearnsSeparableProblem) {
  LinearProblem problem = MakeLinearProblem(400, 3);
  Rng rng(4);
  LogisticRegression model;
  model.Fit(problem.features, problem.labels, problem.rows, &rng);
  const std::vector<float> probs =
      model.PredictProba(problem.features, problem.rows);
  EXPECT_GT(AucScore(probs, problem.labels), 0.95);
  // Learned weights reflect the generating direction.
  EXPECT_GT(model.weights()[0], 0.0f);
  EXPECT_LT(model.weights()[1], 0.0f);
  EXPECT_LT(std::abs(model.weights()[2]),
            std::abs(model.weights()[0]));
}

TEST(LogisticRegressionTest, ProbabilitiesInUnitInterval) {
  LinearProblem problem = MakeLinearProblem(100, 5);
  Rng rng(6);
  LogisticRegression model;
  model.Fit(problem.features, problem.labels, problem.rows, &rng);
  for (float p : model.PredictProba(problem.features, problem.rows)) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(LinearSvmTest, LearnsSeparableProblem) {
  LinearProblem problem = MakeLinearProblem(400, 7);
  Rng rng(8);
  LinearSvm svm;
  svm.Fit(problem.features, problem.labels, problem.rows, {}, &rng);
  const std::vector<float> scores =
      svm.PredictScores(problem.features, problem.rows);
  EXPECT_GT(AucScore(scores, problem.labels), 0.95);
  EXPECT_GT(F1Score(scores, problem.labels), 0.8);
}

TEST(LinearSvmTest, MaskExcludesFeaturesFromModel) {
  LinearProblem problem = MakeLinearProblem(300, 9);
  Rng rng(10);
  LinearSvm svm;
  // Mask out x0, the most informative feature.
  const std::vector<uint8_t> mask = {0, 1, 1};
  svm.Fit(problem.features, problem.labels, problem.rows, mask, &rng);
  EXPECT_FLOAT_EQ(svm.weights()[0], 0.0f);
  EXPECT_NE(svm.weights()[1], 0.0f);
}

TEST(LinearSvmTest, MaskedModelWeakerThanFull) {
  LinearProblem problem = MakeLinearProblem(500, 11);
  Rng rng(12);
  LinearSvm full;
  full.Fit(problem.features, problem.labels, problem.rows, {}, &rng);
  LinearSvm masked;
  masked.Fit(problem.features, problem.labels, problem.rows, {0, 0, 1}, &rng);
  const double auc_full = AucScore(
      full.PredictScores(problem.features, problem.rows), problem.labels);
  const double auc_masked = AucScore(
      masked.PredictScores(problem.features, problem.rows), problem.labels);
  EXPECT_GT(auc_full, auc_masked + 0.2);
}

TEST(LinearSvmTest, EmptyMaskSubsetGivesConstantModel) {
  LinearProblem problem = MakeLinearProblem(100, 13);
  Rng rng(14);
  LinearSvm svm;
  svm.Fit(problem.features, problem.labels, problem.rows,
          std::vector<uint8_t>(3, 0), &rng);
  const std::vector<float> scores =
      svm.PredictScores(problem.features, problem.rows);
  for (float s : scores) EXPECT_FLOAT_EQ(s, scores[0]);
}

TEST(MaskedDnnTest, LearnsAndEvaluates) {
  LinearProblem problem = MakeLinearProblem(600, 15);
  Rng rng(16);
  MaskedDnnConfig config;
  config.epochs = 15;
  MaskedDnnClassifier classifier(config);
  classifier.Fit(problem.features, problem.labels, problem.rows, &rng);
  ASSERT_TRUE(classifier.fitted());
  const FeatureMask all(3, 1);
  EXPECT_GT(classifier.EvaluateAuc(problem.features, problem.labels,
                                   problem.rows, all),
            0.9);
}

TEST(MaskedDnnTest, RelevantSubsetBeatsIrrelevantSubset) {
  LinearProblem problem = MakeLinearProblem(600, 17);
  Rng rng(18);
  MaskedDnnConfig config;
  config.epochs = 15;
  MaskedDnnClassifier classifier(config);
  classifier.Fit(problem.features, problem.labels, problem.rows, &rng);
  const double auc_relevant = classifier.EvaluateAuc(
      problem.features, problem.labels, problem.rows, {1, 1, 0});
  const double auc_noise = classifier.EvaluateAuc(
      problem.features, problem.labels, problem.rows, {0, 0, 1});
  EXPECT_GT(auc_relevant, auc_noise + 0.2);
  EXPECT_NEAR(auc_noise, 0.5, 0.15);
}

TEST(MaskedDnnTest, PredictionsAreProbabilities) {
  LinearProblem problem = MakeLinearProblem(200, 19);
  Rng rng(20);
  MaskedDnnClassifier classifier;
  classifier.Fit(problem.features, problem.labels, problem.rows, &rng);
  for (float p :
       classifier.Predict(problem.features, problem.rows, FeatureMask(3, 1))) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(SubsetEvaluatorTest, CachesRepeatedSubsets) {
  LinearProblem problem = MakeLinearProblem(300, 21);
  Rng rng(22);
  MaskedDnnClassifier classifier;
  classifier.Fit(problem.features, problem.labels, problem.rows, &rng);
  SubsetEvaluator evaluator(&problem.features, problem.labels, &classifier);
  const FeatureMask mask = {1, 0, 1};
  const double first = evaluator.Reward(mask);
  EXPECT_EQ(evaluator.cache_misses(), 1);
  EXPECT_EQ(evaluator.cache_hits(), 0);
  const double second = evaluator.Reward(mask);
  EXPECT_EQ(evaluator.cache_hits(), 1);
  EXPECT_DOUBLE_EQ(first, second);
  evaluator.Reward({0, 1, 1});
  EXPECT_EQ(evaluator.cache_misses(), 2);
}

TEST(SubsetEvaluatorTest, FullFeatureRewardMatchesAllOnesMask) {
  LinearProblem problem = MakeLinearProblem(300, 23);
  Rng rng(24);
  MaskedDnnClassifier classifier;
  classifier.Fit(problem.features, problem.labels, problem.rows, &rng);
  SubsetEvaluator evaluator(&problem.features, problem.labels, &classifier);
  EXPECT_DOUBLE_EQ(evaluator.FullFeatureReward(),
                   evaluator.Reward(FeatureMask(3, 1)));
}

TEST(SubsetEvaluatorTest, RewardsAreValidAuc) {
  LinearProblem problem = MakeLinearProblem(300, 25);
  Rng rng(26);
  MaskedDnnClassifier classifier;
  classifier.Fit(problem.features, problem.labels, problem.rows, &rng);
  SubsetEvaluator evaluator(&problem.features, problem.labels, &classifier);
  Rng mask_rng(27);
  for (int trial = 0; trial < 10; ++trial) {
    FeatureMask mask(3);
    for (auto& bit : mask) bit = mask_rng.Bernoulli(0.5) ? 1 : 0;
    const double reward = evaluator.Reward(mask);
    EXPECT_GE(reward, 0.0);
    EXPECT_LE(reward, 1.0);
  }
}

}  // namespace
}  // namespace pafeat
