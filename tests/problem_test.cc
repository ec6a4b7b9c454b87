#include "core/problem.h"

#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "core/defaults.h"
#include "data/synthetic.h"
#include "pearson_reference.h"

namespace pafeat {
namespace {

SyntheticDataset SmallDataset(uint64_t seed = 5) {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_features = 12;
  spec.num_seen_tasks = 3;
  spec.num_unseen_tasks = 1;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

TEST(FsProblemTest, SplitAndStandardization) {
  const SyntheticDataset dataset = SmallDataset();
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 7);
  EXPECT_EQ(problem.num_features(), 12);
  EXPECT_EQ(problem.num_tasks(), 4);
  EXPECT_EQ(problem.train_rows().size(), 210u);
  EXPECT_EQ(problem.test_rows().size(), 90u);

  // Train/test rows are disjoint and cover everything.
  std::set<int> all(problem.train_rows().begin(), problem.train_rows().end());
  for (int r : problem.test_rows()) {
    EXPECT_EQ(all.count(r), 0u);
    all.insert(r);
  }
  EXPECT_EQ(all.size(), 300u);

  // Standardized features have roughly zero mean on training rows.
  for (int c = 0; c < 3; ++c) {
    double mean = 0.0;
    for (int r : problem.train_rows()) {
      mean += problem.std_features().At(r, c);
    }
    mean /= problem.train_rows().size();
    EXPECT_NEAR(mean, 0.0, 1e-3);
  }
}

TEST(FsProblemTest, TaskContextsAreLazyAndCached) {
  const SyntheticDataset dataset = SmallDataset();
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 7);
  EXPECT_FALSE(problem.TaskBuilt(0));
  const TaskContext& context = problem.Task(0);
  EXPECT_TRUE(problem.TaskBuilt(0));
  EXPECT_FALSE(problem.TaskBuilt(1));
  // Cached: the same object comes back.
  EXPECT_EQ(&problem.Task(0), &context);
  EXPECT_EQ(context.label_index, 0);
  EXPECT_EQ(context.representation.size(), 12u);
  EXPECT_TRUE(context.classifier->fitted());
  // The fast config trains the reward classifier only a few epochs on a
  // small evaluation batch, so only demand a valid AUC well above chaos.
  EXPECT_GT(context.full_feature_reward, 0.3);
  EXPECT_LE(context.full_feature_reward, 1.0);
}

TEST(FsProblemTest, RepresentationHighlightsRelevantFeatures) {
  const SyntheticDataset dataset = SmallDataset(11);
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 7);
  for (int t = 0; t < problem.num_tasks(); ++t) {
    const std::vector<float> repr = problem.ComputeTaskRepresentation(t);
    double relevant = 0.0;
    for (int f : dataset.relevant_features[t]) relevant += repr[f];
    relevant /= dataset.relevant_features[t].size();
    double overall = 0.0;
    for (float v : repr) overall += v;
    overall /= repr.size();
    EXPECT_GT(relevant, overall);
  }
}

TEST(FsProblemTest, RepresentationMatchesTaskContextAndPerColumnPearson) {
  // The cached column moments feed both the seen-task context and the
  // zero-shot query; both must equal the scalar per-column definition.
  const SyntheticDataset dataset = SmallDataset(17);
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 7);
  for (int t = 0; t < problem.num_tasks(); ++t) {
    const std::vector<float> repr = problem.ComputeTaskRepresentation(t);
    const std::vector<float> want =
        PerColumnPearson(problem.std_features(),
                         problem.LabelColumn(t), problem.train_rows());
    const std::vector<float>& context = problem.Task(t).representation;
    ASSERT_EQ(repr.size(), want.size());
    ASSERT_EQ(context.size(), want.size());
    const size_t bytes = sizeof(float) * want.size();
    EXPECT_EQ(std::memcmp(repr.data(), want.data(), bytes), 0) << "task " << t;
    EXPECT_EQ(std::memcmp(context.data(), want.data(), bytes), 0)
        << "task " << t;
  }
}

TEST(FsProblemTest, FullFeatureRewardBeatsRandomMask) {
  const SyntheticDataset dataset = SmallDataset(13);
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 7);
  const TaskContext& context = problem.Task(0);
  FeatureMask junk(12, 0);
  junk[11] = 1;  // a single (likely redundant) feature
  EXPECT_GE(context.full_feature_reward,
            context.evaluator->Reward(junk) - 0.1);
}

}  // namespace
}  // namespace pafeat
