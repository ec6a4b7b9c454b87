#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/csv.h"
#include "data/feature_mask.h"
#include "data/split.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "data/table.h"

namespace pafeat {
namespace {

Table MakeSmallTable() {
  Matrix features(4, 2);
  Matrix labels(4, 2);
  for (int r = 0; r < 4; ++r) {
    features.At(r, 0) = static_cast<float>(r);
    features.At(r, 1) = static_cast<float>(-r);
    labels.At(r, 0) = r % 2 ? 1.0f : 0.0f;
    labels.At(r, 1) = r < 2 ? 1.0f : 0.0f;
  }
  return Table(std::move(features), std::move(labels), {"f0", "f1"},
               {"even", "low"});
}

TEST(TableTest, ShapeAndAccessors) {
  const Table table = MakeSmallTable();
  EXPECT_EQ(table.num_rows(), 4);
  EXPECT_EQ(table.num_features(), 2);
  EXPECT_EQ(table.num_labels(), 2);
  EXPECT_EQ(table.feature_names()[1], "f1");
  const std::vector<float> even = table.LabelColumn(0);
  EXPECT_FLOAT_EQ(even[3], 1.0f);
  EXPECT_FLOAT_EQ(even[2], 0.0f);
}

TEST(TableTest, SelectRowsKeepsSchema) {
  const Table table = MakeSmallTable();
  const Table subset = table.SelectRows({3, 0});
  EXPECT_EQ(subset.num_rows(), 2);
  EXPECT_FLOAT_EQ(subset.features().At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(subset.labels().At(1, 1), 1.0f);
  EXPECT_EQ(subset.label_names(), table.label_names());
}

TEST(TaskViewTest, ExposesOneLabel) {
  const Table table = MakeSmallTable();
  const TaskView task(&table, 1);
  EXPECT_EQ(task.name(), "low");
  EXPECT_EQ(task.num_features(), 2);
  const std::vector<float> labels = task.labels();
  EXPECT_FLOAT_EQ(labels[0], 1.0f);
  EXPECT_FLOAT_EQ(labels[3], 0.0f);
}

TEST(SplitTest, PartitionsAllRows) {
  Rng rng(3);
  const TrainTestSplit split = MakeSplit(100, 0.7, &rng);
  EXPECT_EQ(split.train_rows.size(), 70u);
  EXPECT_EQ(split.test_rows.size(), 30u);
  std::set<int> all(split.train_rows.begin(), split.train_rows.end());
  all.insert(split.test_rows.begin(), split.test_rows.end());
  EXPECT_EQ(all.size(), 100u);
  EXPECT_EQ(*all.begin(), 0);
  EXPECT_EQ(*all.rbegin(), 99);
}

TEST(StratifiedSplitTest, PreservesPositiveRate) {
  Rng rng(7);
  std::vector<float> labels(200);
  for (int i = 0; i < 200; ++i) labels[i] = i < 40 ? 1.0f : 0.0f;  // 20%
  const TrainTestSplit split = MakeStratifiedSplit(labels, 0.7, &rng);
  auto positive_rate = [&](const std::vector<int>& rows) {
    int positives = 0;
    for (int r : rows) {
      if (labels[r] > 0.5f) ++positives;
    }
    return static_cast<double>(positives) / rows.size();
  };
  EXPECT_NEAR(positive_rate(split.train_rows), 0.2, 0.01);
  EXPECT_NEAR(positive_rate(split.test_rows), 0.2, 0.01);
  // Partition covers everything exactly once.
  std::set<int> all(split.train_rows.begin(), split.train_rows.end());
  for (int r : split.test_rows) {
    EXPECT_EQ(all.count(r), 0u);
    all.insert(r);
  }
  EXPECT_EQ(all.size(), 200u);
}

TEST(StratifiedSplitTest, RarePositivesLandOnBothSides) {
  Rng rng(9);
  std::vector<float> labels(50, 0.0f);
  labels[3] = 1.0f;
  labels[17] = 1.0f;  // only two positives
  const TrainTestSplit split = MakeStratifiedSplit(labels, 0.7, &rng);
  auto count_positives = [&](const std::vector<int>& rows) {
    int positives = 0;
    for (int r : rows) {
      if (labels[r] > 0.5f) ++positives;
    }
    return positives;
  };
  EXPECT_EQ(count_positives(split.train_rows), 1);
  EXPECT_EQ(count_positives(split.test_rows), 1);
}

TEST(SplitTest, AlwaysLeavesTestRows) {
  Rng rng(5);
  const TrainTestSplit split = MakeSplit(3, 0.99, &rng);
  EXPECT_GE(split.test_rows.size(), 1u);
  EXPECT_GE(split.train_rows.size(), 1u);
}

TEST(StandardizerTest, ZeroMeanUnitVarianceOnFitRows) {
  Rng rng(7);
  Matrix features = Matrix::RandomNormal(200, 3, 1.0f, &rng);
  features.Scale(4.0f);
  std::vector<int> rows(200);
  for (int i = 0; i < 200; ++i) rows[i] = i;
  Standardizer standardizer;
  standardizer.Fit(features, rows);
  const Matrix transformed = standardizer.Transform(features);
  for (int c = 0; c < 3; ++c) {
    double mean = 0.0;
    double var = 0.0;
    for (int r = 0; r < 200; ++r) mean += transformed.At(r, c);
    mean /= 200;
    for (int r = 0; r < 200; ++r) {
      const double d = transformed.At(r, c) - mean;
      var += d * d;
    }
    var /= 200;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(StandardizerTest, ConstantColumnSurvives) {
  Matrix features(10, 1, 3.0f);
  std::vector<int> rows(10);
  for (int i = 0; i < 10; ++i) rows[i] = i;
  Standardizer standardizer;
  standardizer.Fit(features, rows);
  const Matrix transformed = standardizer.Transform(features);
  for (int r = 0; r < 10; ++r) {
    EXPECT_FLOAT_EQ(transformed.At(r, 0), 0.0f);  // (x - mean) / 1
  }
}

TEST(PearsonTest, PerfectCorrelation) {
  const std::vector<float> a = {1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> b = {2.0f, 4.0f, 6.0f, 8.0f};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-9);
  std::vector<float> negated = b;
  for (float& v : negated) v = -v;
  EXPECT_NEAR(PearsonCorrelation(a, negated), -1.0, 1e-9);
}

TEST(PearsonTest, ConstantVectorGivesZero) {
  const std::vector<float> a = {1.0f, 1.0f, 1.0f};
  const std::vector<float> b = {1.0f, 2.0f, 3.0f};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, b), 0.0);
}

TEST(PearsonTest, IndependentNearZero) {
  Rng rng(11);
  std::vector<float> a(5000);
  std::vector<float> b(5000);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.Normal());
    b[i] = static_cast<float>(rng.Normal());
  }
  EXPECT_NEAR(PearsonCorrelation(a, b), 0.0, 0.05);
}

TEST(TaskRepresentationTest, HighlightsCorrelatedFeature) {
  Rng rng(13);
  const int n = 500;
  Matrix features = Matrix::RandomNormal(n, 4, 1.0f, &rng);
  std::vector<float> labels(n);
  for (int r = 0; r < n; ++r) {
    labels[r] = features.At(r, 2) > 0.0f ? 1.0f : 0.0f;
  }
  std::vector<int> rows(n);
  for (int i = 0; i < n; ++i) rows[i] = i;
  const std::vector<float> repr = TaskRepresentation(features, labels, rows);
  ASSERT_EQ(repr.size(), 4u);
  EXPECT_GT(repr[2], 0.5f);
  for (int f : {0, 1, 3}) EXPECT_LT(repr[f], 0.2f);
  for (float v : repr) EXPECT_GE(v, 0.0f);  // absolute values
}

TEST(TaskRepresentationTest, InvariantToStandardization) {
  // |Pearson| is invariant to positive affine transforms of the features,
  // so a serving process can compute an unseen task's representation from
  // *raw* features and feed a checkpointed agent trained on standardized
  // ones — no need to ship the standardizer.
  Rng rng(15);
  Matrix features = Matrix::RandomNormal(300, 5, 1.0f, &rng);
  for (int r = 0; r < 300; ++r) {
    for (int c = 0; c < 5; ++c) {
      features.At(r, c) = features.At(r, c) * (3.0f + c) + 10.0f * c;
    }
  }
  std::vector<float> labels(300);
  for (int r = 0; r < 300; ++r) {
    labels[r] = features.At(r, 1) > 13.0f ? 1.0f : 0.0f;
  }
  std::vector<int> rows(300);
  for (int i = 0; i < 300; ++i) rows[i] = i;

  Standardizer standardizer;
  standardizer.Fit(features, rows);
  const Matrix standardized = standardizer.Transform(features);

  const std::vector<float> raw_repr =
      TaskRepresentation(features, labels, rows);
  const std::vector<float> std_repr =
      TaskRepresentation(standardized, labels, rows);
  for (int f = 0; f < 5; ++f) {
    EXPECT_NEAR(raw_repr[f], std_repr[f], 1e-4f) << "feature " << f;
  }
}

TEST(MutualInformationTest, InformativeFeatureBeatsNoise) {
  Rng rng(17);
  const int n = 800;
  Matrix features = Matrix::RandomNormal(n, 2, 1.0f, &rng);
  std::vector<float> labels(n);
  for (int r = 0; r < n; ++r) {
    labels[r] = features.At(r, 0) > 0.3f ? 1.0f : 0.0f;
  }
  std::vector<int> rows(n);
  for (int i = 0; i < n; ++i) rows[i] = i;
  const double informative =
      MutualInformationWithLabel(features, 0, labels, rows);
  const double noise = MutualInformationWithLabel(features, 1, labels, rows);
  EXPECT_GT(informative, noise + 0.1);
  EXPECT_GE(noise, 0.0);
}

TEST(MutualInformationTest, FeatureWithItselfIsLarge) {
  Rng rng(19);
  const int n = 500;
  const Matrix features = Matrix::RandomNormal(n, 2, 1.0f, &rng);
  std::vector<int> rows(n);
  for (int i = 0; i < n; ++i) rows[i] = i;
  const double self =
      MutualInformationBetweenFeatures(features, 0, 0, rows);
  const double cross =
      MutualInformationBetweenFeatures(features, 0, 1, rows);
  EXPECT_GT(self, cross + 0.5);
}

TEST(BinnedFeaturesTest, MatchesDirectComputation) {
  Rng rng(23);
  const int n = 300;
  const Matrix features = Matrix::RandomNormal(n, 5, 1.0f, &rng);
  std::vector<int> rows(n);
  for (int i = 0; i < n; ++i) rows[i] = i;
  const BinnedFeatures binned(features, rows, 10);
  for (int a = 0; a < 5; ++a) {
    for (int b = a; b < 5; ++b) {
      EXPECT_NEAR(binned.MutualInformation(a, b),
                  MutualInformationBetweenFeatures(features, a, b, rows, 10),
                  1e-9);
    }
  }
}

TEST(FeatureMaskTest, ConversionsRoundTrip) {
  const std::vector<int> indices = {1, 4, 5};
  const FeatureMask mask = IndicesToMask(indices, 8);
  EXPECT_EQ(MaskCount(mask), 3);
  EXPECT_EQ(MaskToIndices(mask), indices);
  EXPECT_EQ(MaskToString(mask), "{1, 4, 5}");
}

TEST(FeatureMaskTest, KeyDistinguishesMasks) {
  FeatureMask a(10, 0);
  FeatureMask b(10, 0);
  a[3] = 1;
  b[4] = 1;
  EXPECT_NE(MaskKey(a), MaskKey(b));
  EXPECT_EQ(MaskKey(a), MaskKey(a));
  // Keys pack bits: 10-feature masks use 2 bytes.
  EXPECT_EQ(MaskKey(a).size(), 2u);
}

TEST(FeatureMaskTest, PackMaskPacks64BitWords) {
  FeatureMask mask(130, 0);
  mask[0] = 1;
  mask[63] = 1;
  mask[64] = 1;
  mask[129] = 1;
  const PackedMask packed = PackMask(mask);
  ASSERT_EQ(packed.size(), 3u);  // ceil(130 / 64)
  EXPECT_EQ(packed[0], (uint64_t{1} << 63) | 1u);
  EXPECT_EQ(packed[1], uint64_t{1});
  EXPECT_EQ(packed[2], uint64_t{1} << 1);
  EXPECT_EQ(PackMask(FeatureMask(64, 0)).size(), 1u);
  EXPECT_TRUE(PackMask(FeatureMask()).empty());
}

TEST(FeatureMaskTest, PackedMaskHashSeparatesNeighbors) {
  // The reward cache keys on PackedMask; single-bit flips and the
  // empty-vs-unset distinction must produce distinct keys (equality) and,
  // for these simple cases, distinct hashes too.
  PackedMaskHash hash;
  FeatureMask a(70, 0);
  FeatureMask b(70, 0);
  a[3] = 1;
  b[4] = 1;
  EXPECT_NE(PackMask(a), PackMask(b));
  EXPECT_NE(hash(PackMask(a)), hash(PackMask(b)));
  EXPECT_EQ(hash(PackMask(a)), hash(PackMask(a)));
  // Different lengths with identical words still hash apart.
  EXPECT_NE(hash(PackedMask{0}), hash(PackedMask{0, 0}));
}

TEST(CsvTest, RoundTripsTable) {
  const Table table = MakeSmallTable();
  const std::string path = ::testing::TempDir() + "/pafeat_table.csv";
  ASSERT_TRUE(WriteTableCsv(table, path));
  const auto loaded = ReadTableCsv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_rows(), 4);
  EXPECT_EQ(loaded->num_features(), 2);
  EXPECT_EQ(loaded->num_labels(), 2);
  EXPECT_EQ(loaded->label_names()[0], "even");
  EXPECT_FLOAT_EQ(loaded->features().At(2, 1), -2.0f);
  EXPECT_FLOAT_EQ(loaded->labels().At(1, 0), 1.0f);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(ReadTableCsv("/nonexistent/never/file.csv").has_value());
}

TEST(CsvTest, RejectsNonFiniteAndOutOfRangeCells) {
  const std::string path = ::testing::TempDir() + "/pafeat_bad_cell.csv";
  for (const char* cell : {"nan", "inf", "-inf", "1e39", "-1e39", "1e400"}) {
    for (bool in_label : {false, true}) {
      {
        std::ofstream out(path);
        out << "f0,f1,label:y\n1,2,0\n";
        out << (in_label ? "3,4," : "3,") << cell << (in_label ? "" : ",1")
            << "\n";
      }
      EXPECT_FALSE(ReadTableCsv(path).has_value())
          << cell << (in_label ? " as label" : " as feature");
    }
  }
  std::remove(path.c_str());
}

TEST(SyntheticTest, ShapesMatchSpec) {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_features = 20;
  spec.num_seen_tasks = 3;
  spec.num_unseen_tasks = 2;
  const SyntheticDataset dataset = GenerateSynthetic(spec);
  EXPECT_EQ(dataset.table.num_rows(), 300);
  EXPECT_EQ(dataset.table.num_features(), 20);
  EXPECT_EQ(dataset.table.num_labels(), 5);
  EXPECT_EQ(dataset.relevant_features.size(), 5u);
  EXPECT_EQ(dataset.SeenTaskIndices(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(dataset.UnseenTaskIndices(), (std::vector<int>{3, 4}));
}

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticSpec spec;
  spec.num_instances = 100;
  spec.num_features = 12;
  const SyntheticDataset a = GenerateSynthetic(spec);
  const SyntheticDataset b = GenerateSynthetic(spec);
  EXPECT_TRUE(a.table.features() == b.table.features());
  EXPECT_TRUE(a.table.labels() == b.table.labels());
  EXPECT_EQ(a.relevant_features, b.relevant_features);
}

TEST(SyntheticTest, LabelsAreBinaryWithReasonableBalance) {
  SyntheticSpec spec;
  spec.num_instances = 400;
  spec.num_features = 16;
  const SyntheticDataset dataset = GenerateSynthetic(spec);
  for (int t = 0; t < dataset.table.num_labels(); ++t) {
    const std::vector<float> labels = dataset.table.LabelColumn(t);
    int positives = 0;
    for (float y : labels) {
      EXPECT_TRUE(y == 0.0f || y == 1.0f);
      if (y > 0.5f) ++positives;
    }
    const double rate = static_cast<double>(positives) / labels.size();
    EXPECT_GT(rate, 0.15);
    EXPECT_LT(rate, 0.6);
  }
}

TEST(SyntheticTest, RelevantFeaturesActuallyCorrelate) {
  SyntheticSpec spec;
  spec.num_instances = 600;
  spec.num_features = 20;
  spec.label_noise = 0.2;
  const SyntheticDataset dataset = GenerateSynthetic(spec);
  std::vector<int> rows(600);
  for (int i = 0; i < 600; ++i) rows[i] = i;
  for (int t = 0; t < dataset.table.num_labels(); ++t) {
    const std::vector<float> repr = TaskRepresentation(
        dataset.table.features(), dataset.table.LabelColumn(t), rows);
    double relevant_mean = 0.0;
    for (int f : dataset.relevant_features[t]) relevant_mean += repr[f];
    relevant_mean /= dataset.relevant_features[t].size();
    double overall_mean = 0.0;
    for (float v : repr) overall_mean += v;
    overall_mean /= repr.size();
    EXPECT_GT(relevant_mean, overall_mean)
        << "task " << t << " relevant features carry no signal";
  }
}

TEST(SyntheticTest, PaperSpecsMatchTableOne) {
  const std::vector<SyntheticSpec> specs = PaperDatasetSpecs();
  ASSERT_EQ(specs.size(), 8u);
  EXPECT_EQ(specs[0].name, "Emotions");
  EXPECT_EQ(specs[0].num_instances, 593);
  EXPECT_EQ(specs[0].num_features, 72);
  EXPECT_EQ(specs[0].num_seen_tasks, 4);
  EXPECT_EQ(specs[0].num_unseen_tasks, 2);
  EXPECT_EQ(specs[7].name, "Entertainment");
  EXPECT_EQ(specs[7].num_features, 1020);
  const auto mediamill = PaperSpecByName("Mediamill");
  ASSERT_TRUE(mediamill.has_value());
  EXPECT_EQ(mediamill->num_instances, 43910);
  EXPECT_FALSE(PaperSpecByName("NoSuchDataset").has_value());
}

TEST(SyntheticTest, ScaledSpecShrinksRows) {
  const SyntheticSpec spec = *PaperSpecByName("Mediamill");
  const SyntheticSpec scaled = ScaledSpec(spec, 0.05);
  EXPECT_EQ(scaled.num_instances, 2196);
  EXPECT_EQ(scaled.num_features, spec.num_features);
  const SyntheticSpec floor_scaled = ScaledSpec(spec, 1e-9);
  EXPECT_EQ(floor_scaled.num_instances, 200);
}

class SyntheticPaperSweep : public ::testing::TestWithParam<int> {};

TEST_P(SyntheticPaperSweep, GeneratesScaledPaperDataset) {
  SyntheticSpec spec = ScaledSpec(PaperDatasetSpecs()[GetParam()], 0.05);
  const SyntheticDataset dataset = GenerateSynthetic(spec);
  EXPECT_EQ(dataset.table.num_features(), spec.num_features);
  EXPECT_EQ(dataset.table.num_labels(),
            spec.num_seen_tasks + spec.num_unseen_tasks);
  EXPECT_GE(dataset.table.num_rows(), 200);
}

INSTANTIATE_TEST_SUITE_P(AllPaperDatasets, SyntheticPaperSweep,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace pafeat
