// Tests for the masked-subset inference fast path (DESIGN.md "Inference
// fast path"): column-gathered first-layer products must be bit-identical
// to the full-width reference on zero-masked inputs, a reward miss that
// folds into its scan's subset record must equal a fresh evaluation bit for
// bit, the reward evaluator must dedup concurrent cache misses, and the
// per-thread inference arena must stop allocating once warm.

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/feature_mask.h"
#include "ml/masked_dnn.h"
#include "ml/metrics.h"
#include "ml/subset_evaluator.h"
#include "nn/mlp.h"
#include "nn/workspace.h"
#include "rl/dqn_agent.h"
#include "rl/fs_env.h"
#include "tensor/matrix.h"

namespace pafeat {
namespace {

// Column lists exercising the awkward shapes: nothing, everything, a single
// column at each end, alternating, and a pseudo-random half.
std::vector<std::vector<int>> ColumnListsFor(int m, Rng* rng) {
  std::vector<std::vector<int>> lists;
  lists.push_back({});                       // empty subset
  std::vector<int> all(m);
  for (int c = 0; c < m; ++c) all[c] = c;
  lists.push_back(all);                      // full subset
  lists.push_back({0});                      // one-hot, first
  lists.push_back({m - 1});                  // one-hot, last
  std::vector<int> alternating;
  for (int c = 0; c < m; c += 2) alternating.push_back(c);
  lists.push_back(alternating);
  std::vector<int> random_half;
  for (int c = 0; c < m; ++c) {
    if (rng->Bernoulli(0.5)) random_half.push_back(c);
  }
  lists.push_back(random_half);
  return lists;
}

TEST(MaskedInferenceTest, GatheredMatchesReferenceBitwise) {
  const std::vector<std::vector<int>> hidden_configs = {
      {64}, {32, 16}, {} /* single layer: input -> output directly */};
  const int feature_counts[] = {3, 7, 64, 129};
  const int row_counts[] = {1, 2, 3, 5, 8, 33};

  Rng rng(0x5eed);
  for (const std::vector<int>& hidden : hidden_configs) {
    for (int m : feature_counts) {
      MlpConfig config;
      config.input_dim = m;
      config.hidden_dims = hidden;
      config.output_dim = 2;
      config.output_activation = Activation::kLinear;
      Mlp net(config, &rng);
      const Matrix w0t = net.FirstLayerWeightTransposed();
      InferenceArena* arena = InferenceArena::ThreadLocal();

      for (int rows : row_counts) {
        const Matrix x = Matrix::RandomNormal(rows, m, 1.0f, &rng);
        for (const std::vector<int>& cols : ColumnListsFor(m, &rng)) {
          // The reference runs full-width over a copy with the unselected
          // columns zeroed — exactly what BuildMaskedBatch would produce.
          Matrix masked(rows, m);
          for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < m; ++c) masked.At(r, c) = 0.0f;
            for (int c : cols) masked.At(r, c) = x.At(r, c);
          }
          std::vector<float> fast(rows * config.output_dim);
          std::vector<float> reference(rows * config.output_dim);
          ArenaScope scope(arena);
          net.PredictGathered(rows, x.data(), m, cols.data(),
                              static_cast<int>(cols.size()), w0t, arena,
                              fast.data());
          net.PredictGatheredReference(rows, masked.data(), m, w0t, arena,
                                       reference.data());
          for (size_t i = 0; i < fast.size(); ++i) {
            ASSERT_EQ(fast[i], reference[i])
                << "m=" << m << " rows=" << rows
                << " ncols=" << cols.size() << " element " << i;
          }
        }
      }
    }
  }
}

MaskedDnnClassifier FitSmallClassifier(Matrix* features,
                                       std::vector<float>* labels,
                                       int num_features = 17,
                                       std::vector<int> hidden_dims = {64}) {
  Rng rng(0xc1a55);
  *features = Matrix::RandomNormal(96, num_features, 1.0f, &rng);
  labels->resize(96);
  for (int r = 0; r < 96; ++r) {
    (*labels)[r] = features->At(r, 2) + features->At(r, 9) > 0.0f ? 1.0f : 0.0f;
  }
  std::vector<int> rows(96);
  for (int r = 0; r < 96; ++r) rows[r] = r;
  MaskedDnnConfig config;
  config.hidden_dims = std::move(hidden_dims);
  config.epochs = 3;
  MaskedDnnClassifier classifier(config);
  classifier.Fit(*features, *labels, rows, &rng);
  return classifier;
}

// The labels of `rows`, in order: a gathered evaluation block's labels.
std::vector<float> GatherLabels(const std::vector<float>& labels,
                                const std::vector<int>& rows) {
  std::vector<float> gathered;
  for (int r : rows) gathered.push_back(labels[r]);
  return gathered;
}

// 77 eval rows: not a multiple of the gather kernel's 4-row tile, so the
// remainder-row path carries too.
std::vector<int> CarryEvalRows() {
  std::vector<int> eval_rows;
  for (int r = 0; r < 96; ++r) {
    if (r % 5 != 1) eval_rows.push_back(r);
  }
  return eval_rows;
}

TEST(MaskedInferenceTest, CarriedRewardMatchesFreshAlongScans) {
  // Random left-to-right scans, each on a fresh evaluator: every subset of a
  // scan is new, so every call misses and folds into the record. Each reward
  // must equal the fresh evaluation exactly, for a hidden trunk and for a
  // single-layer classifier (whose first layer is the output).
  const std::vector<std::vector<int>> hidden_configs = {{64}, {}};
  for (const std::vector<int>& hidden : hidden_configs) {
    Matrix features;
    std::vector<float> labels;
    const MaskedDnnClassifier classifier =
        FitSmallClassifier(&features, &labels, 40, hidden);
    const int m = features.cols();
    Rng rng(0x5ca9);
    const double select_probs[] = {0.1, 0.5, 0.9, 1.0};
    for (double select_prob : select_probs) {
      for (int scan = 0; scan < 3; ++scan) {
        const Matrix block = features.SelectRows(CarryEvalRows());
        const SubsetEvaluator evaluator(
            &block, GatherLabels(labels, CarryEvalRows()), &classifier);
        FeatureMask mask(m, 0);
        SubsetRecord record;
        evaluator.StartRecord(mask, m, &record);
        // The first scan at each density opens with column 0.
        for (int p = 0; p < m; ++p) {
          const bool opens = scan == 0 && p == 0;
          if (!opens && !rng.Bernoulli(select_prob)) continue;
          mask[p] = 1;
          record.Select(p);
          const long long misses = evaluator.cache_misses();
          const double carried = evaluator.Reward(&record);
          ASSERT_EQ(evaluator.cache_misses(), misses + 1);
          ASSERT_EQ(carried, evaluator.EvaluateUncached(mask))
              << "hidden layers " << hidden.size() << " p=" << select_prob
              << " scan " << scan << " column " << p;
          ASSERT_EQ(record.cols, MaskToIndices(mask));
          ASSERT_EQ(record.folded, static_cast<int>(record.cols.size()));
        }
      }
    }
  }
}

TEST(MaskedInferenceTest, CarryLagsBehindCacheHits) {
  // Every other subset of the scan is cached before the scan runs, so half
  // the calls hit and leave the record's sum behind; the next miss folds in
  // every column the sum skipped.
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier =
      FitSmallClassifier(&features, &labels, 40);
  const int m = features.cols();
  const Matrix block = features.SelectRows(CarryEvalRows());
  const SubsetEvaluator evaluator(
      &block, GatherLabels(labels, CarryEvalRows()), &classifier);
  Rng rng(0x1a95);
  std::vector<int> selects;
  std::vector<FeatureMask> scan;
  FeatureMask mask(m, 0);
  for (int p = 0; p < m; ++p) {
    if (!rng.Bernoulli(0.4)) continue;
    mask[p] = 1;
    selects.push_back(p);
    scan.push_back(mask);
  }
  ASSERT_GE(scan.size(), 8u);
  for (size_t i = 0; i < scan.size(); i += 2) evaluator.Reward(scan[i]);

  SubsetRecord record;
  evaluator.StartRecord(FeatureMask(m, 0), m, &record);
  for (size_t i = 0; i < scan.size(); ++i) {
    record.Select(selects[i]);
    const long long hits = evaluator.cache_hits();
    const int folded_before = record.folded;
    const double carried = evaluator.Reward(&record);
    ASSERT_EQ(carried, evaluator.EvaluateUncached(scan[i])) << "step " << i;
    ASSERT_EQ(record.cols, MaskToIndices(scan[i]));
    if (i % 2 == 0) {
      ASSERT_EQ(evaluator.cache_hits(), hits + 1);
      ASSERT_EQ(record.folded, folded_before);  // a hit leaves the sum behind
      ASSERT_LT(record.folded, static_cast<int>(record.cols.size()));
    } else {
      ASSERT_EQ(record.folded, static_cast<int>(record.cols.size()));
    }
  }
}

TEST(MaskedInferenceTest, CarryRestartsOnNonExtendingMask) {
  // Only a restart starts a subset that does not extend the record: a
  // shorter subset, a column inserted before the carried tail, a disjoint
  // jump (an ITE ResetTo). Each restart folds its whole list from zero, and
  // a select that extends the list folds only the new column; every reward
  // equals the fresh evaluation.
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier =
      FitSmallClassifier(&features, &labels, 40);
  const int m = features.cols();
  const Matrix block = features.SelectRows(CarryEvalRows());
  const SubsetEvaluator evaluator(
      &block, GatherLabels(labels, CarryEvalRows()), &classifier);
  struct Move {
    std::vector<int> cols;
    bool restart;  // false: select the last column into the previous list
  };
  const std::vector<Move> sequence = {
      {{2, 5, 9}, true},          // fresh
      {{2, 5, 9, 17}, false},     // extends
      {{2, 5}, true},             // shorter
      {{2, 3, 5, 9}, true},       // a column inside the carried list
      {{2, 3, 5, 9, 30}, false},  // extends again
      {{1, 31, 39}, true},        // disjoint jump
      {{0, 1, 31, 39}, true},     // a column before the carried list
  };
  SubsetRecord record;
  for (const Move& move : sequence) {
    const FeatureMask mask = IndicesToMask(move.cols, m);
    if (move.restart) {
      evaluator.StartRecord(mask, m, &record);
      ASSERT_EQ(record.folded, 0);
    } else {
      const int folded_before = record.folded;
      record.Select(move.cols.back());
      ASSERT_EQ(record.folded, folded_before);
    }
    ASSERT_EQ(record.cols, move.cols);
    ASSERT_EQ(record.key, PackMask(mask));
    ASSERT_EQ(evaluator.Reward(&record), evaluator.EvaluateUncached(mask))
        << MaskToString(mask);
    ASSERT_EQ(record.cols, move.cols);
    ASSERT_EQ(record.folded, static_cast<int>(move.cols.size()));
  }
}

TEST(MaskedInferenceTest, RecordSelectKeepsOrderPastTheScanPosition) {
  // A start mask with bits past its scan position: a select below the last
  // listed column goes in at its place (restarting the sum when it lands in
  // the folded prefix), and a select of a listed column changes nothing.
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier =
      FitSmallClassifier(&features, &labels, 40);
  const int m = features.cols();
  const Matrix block = features.SelectRows(CarryEvalRows());
  const SubsetEvaluator evaluator(
      &block, GatherLabels(labels, CarryEvalRows()), &classifier);
  SubsetRecord record;
  FeatureMask mask = IndicesToMask({4, 20, 33}, m);
  evaluator.StartRecord(mask, 0, &record);
  ASSERT_EQ(evaluator.Reward(&record), evaluator.EvaluateUncached(mask));
  for (int column : {7, 20, 2, 38, 35}) {
    mask[column] = 1;
    record.Select(column);
    ASSERT_EQ(record.cols, MaskToIndices(mask)) << column;
    ASSERT_EQ(record.key, PackMask(mask)) << column;
    ASSERT_EQ(evaluator.Reward(&record), evaluator.EvaluateUncached(mask))
        << MaskToString(mask);
  }
}

TEST(MaskedInferenceTest, CarryCoversEmptyAndAllOnesMasks) {
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier =
      FitSmallClassifier(&features, &labels, 40);
  const int m = features.cols();
  const Matrix block = features.SelectRows(CarryEvalRows());
  const SubsetEvaluator evaluator(
      &block, GatherLabels(labels, CarryEvalRows()), &classifier);
  const FeatureMask empty(m, 0);
  const FeatureMask all(m, 1);
  FeatureMask first_only(m, 0);
  first_only[0] = 1;
  // Empty -> all-ones extends the empty list one select at a time; all-ones
  // -> {0} is a restart.
  SubsetRecord record;
  evaluator.StartRecord(empty, m, &record);
  ASSERT_EQ(evaluator.Reward(&record), evaluator.EvaluateUncached(empty));
  for (int c = 0; c < m; ++c) record.Select(c);
  ASSERT_EQ(evaluator.Reward(&record), evaluator.EvaluateUncached(all));
  ASSERT_EQ(record.folded, m);
  evaluator.StartRecord(first_only, m, &record);
  ASSERT_EQ(evaluator.Reward(&record), evaluator.EvaluateUncached(first_only));
  ASSERT_EQ(record.cols, std::vector<int>{0});

  // At the classifier: the implicit all-features mask (an empty vector)
  // runs the explicit all-ones subset, and an all-zero mask gathers
  // nothing.
  FeatureMask half(m, 0);
  for (int c = 0; c < m / 2; ++c) half[c] = 1;
  for (const FeatureMask& mask : {half, FeatureMask{}, empty}) {
    EXPECT_EQ(classifier.PredictBlock(block, mask),
              classifier.PredictBlockReference(block, mask))
        << MaskToString(mask);
    SubsetRecord fresh;
    evaluator.StartRecord(mask.empty() ? all : mask, 0, &fresh);
    EXPECT_EQ(static_cast<int>(fresh.cols.size()),
              mask.empty() ? m : MaskCount(mask));
  }
}

TEST(MaskedInferenceTest, CarryCopiedWithEnvStaysExact) {
  // Episode drivers copy the environment, subset record included. A copy
  // taken mid-scan must continue exactly, and so must the original, each on
  // its own record.
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier =
      FitSmallClassifier(&features, &labels, 40);
  const Matrix block = features.SelectRows(CarryEvalRows());
  const SubsetEvaluator evaluator(
      &block, GatherLabels(labels, CarryEvalRows()), &classifier);
  std::vector<float> representation(features.cols(), 0.5f);
  FeatureSelectionEnv env(representation, &evaluator, /*max_feature_ratio=*/1.0);
  auto expect_exact = [&](const FeatureSelectionEnv& e) {
    ASSERT_EQ(e.current_performance(),
              evaluator.EvaluateUncached(e.state().mask))
        << MaskToString(e.state().mask);
  };
  for (int p = 0; p < 12; ++p) {
    env.Step(p % 3 == 0 ? kActionSelect : kActionDeselect);
    expect_exact(env);
  }
  FeatureSelectionEnv copy = env;
  while (!env.Done()) {
    env.Step(kActionSelect);
    expect_exact(env);
  }
  // The copy scans the same columns with a different pattern, so its
  // subsets are new misses on the record it inherited.
  for (int p = 0; !copy.Done(); ++p) {
    copy.Step(p % 2 == 0 ? kActionDeselect : kActionSelect);
    expect_exact(copy);
  }
}

TEST(MaskedInferenceTest, ClassifierBlockFastMatchesReferenceBitwise) {
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier = FitSmallClassifier(&features, &labels);
  const int m = features.cols();

  std::vector<FeatureMask> masks;
  masks.push_back({});                 // empty mask = all features
  masks.push_back(FeatureMask(m, 1));  // explicit all-ones
  masks.push_back(FeatureMask(m, 0));  // empty subset
  FeatureMask one_hot(m, 0);
  one_hot[m / 2] = 1;
  masks.push_back(one_hot);
  FeatureMask alternating(m, 0);
  for (int c = 0; c < m; c += 2) alternating[c] = 1;
  masks.push_back(alternating);

  for (const FeatureMask& mask : masks) {
    const std::vector<float> fast = classifier.PredictBlock(features, mask);
    const std::vector<float> reference =
        classifier.PredictBlockReference(features, mask);
    ASSERT_EQ(fast.size(), reference.size());
    for (size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i], reference[i]) << "mask size " << mask.size()
                                       << " element " << i;
      ASSERT_GT(fast[i], 0.0f);
      ASSERT_LT(fast[i], 1.0f);
    }
  }
}

TEST(MaskedInferenceTest, EmptyAndAllOnesMasksAgree) {
  // An empty mask vector and an explicit all-ones mask are the same subset
  // and must produce identical scores through the fast path.
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier = FitSmallClassifier(&features, &labels);
  const std::vector<float> implicit = classifier.PredictBlock(features, {});
  const std::vector<float> explicit_all =
      classifier.PredictBlock(features, FeatureMask(features.cols(), 1));
  ASSERT_EQ(implicit.size(), explicit_all.size());
  for (size_t i = 0; i < implicit.size(); ++i) {
    EXPECT_EQ(implicit[i], explicit_all[i]);
  }
}

TEST(MaskedInferenceTest, AucTieHandlingRegression) {
  // Midrank tie handling: the tied positive/negative pair contributes 1/2.
  EXPECT_DOUBLE_EQ(AucScore({0.2f, 0.5f, 0.5f, 0.8f}, {0.0f, 1.0f, 0.0f, 1.0f}),
                   0.875);
  // All scores tied: chance level regardless of labels.
  EXPECT_DOUBLE_EQ(AucScore({0.4f, 0.4f, 0.4f, 0.4f}, {0.0f, 1.0f, 0.0f, 1.0f}),
                   0.5);
  // Perfect separation is unaffected.
  EXPECT_DOUBLE_EQ(AucScore({0.1f, 0.2f, 0.8f, 0.9f}, {0.0f, 0.0f, 1.0f, 1.0f}),
                   1.0);
}

TEST(MaskedInferenceTest, ArenaStopsAllocatingOnceWarm) {
  Rng rng(0xa12e4a);
  DqnConfig config;
  config.net.input_dim = 147;
  config.net.num_actions = 2;
  const DqnAgent agent(config, &rng);
  std::vector<float> observation(147);
  for (float& v : observation) v = static_cast<float>(rng.Normal());

  InferenceArena* arena = InferenceArena::ThreadLocal();
  int action = -1;
  for (int i = 0; i < 3; ++i) {
    agent.ActBatch(1, observation.data(), &action);  // warm-up
  }
  const long long slabs_before = arena->slab_allocations();
  const std::size_t capacity_before = arena->capacity_floats();
  for (int i = 0; i < 200; ++i) {
    agent.ActBatch(1, observation.data(), &action);
  }
  EXPECT_EQ(arena->slab_allocations(), slabs_before);
  EXPECT_EQ(arena->capacity_floats(), capacity_before);
}

TEST(MaskedInferenceTest, EvaluatorUncachedMatchesReward) {
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier = FitSmallClassifier(&features, &labels);
  std::vector<int> eval_rows;
  for (int r = 0; r < features.rows(); r += 2) eval_rows.push_back(r);
  const Matrix block = features.SelectRows(eval_rows);
  const SubsetEvaluator evaluator(&block, GatherLabels(labels, eval_rows),
                                  &classifier);

  FeatureMask mask(features.cols(), 0);
  mask[2] = 1;
  mask[9] = 1;
  const double uncached = evaluator.EvaluateUncached(mask);
  EXPECT_EQ(evaluator.Reward(mask), uncached);
  EXPECT_EQ(evaluator.Reward(mask), uncached);  // cached second time
  EXPECT_EQ(evaluator.cache_misses(), 1);
  EXPECT_EQ(evaluator.cache_hits(), 1);
}

TEST(MaskedInferenceTest, ConcurrentMissesOnSameMaskComputeOnce) {
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier = FitSmallClassifier(&features, &labels);
  const SubsetEvaluator evaluator(&features, labels, &classifier);

  FeatureMask mask(features.cols(), 0);
  for (int c = 0; c < features.cols(); c += 3) mask[c] = 1;

  constexpr int kThreads = 8;
  std::vector<double> rewards(kThreads);
  std::atomic<int> ready{0};
  // lint: allow(raw-thread): stampede test needs unmanaged threads racing
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      rewards[t] = evaluator.Reward(mask);
    });
  }
  // lint: allow(raw-thread): joining the stress threads spawned above
  for (std::thread& thread : threads) thread.join();

  // Exactly one thread computed; everyone else waited and read the cache.
  EXPECT_EQ(evaluator.cache_misses(), 1);
  EXPECT_EQ(evaluator.cache_hits(), kThreads - 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(rewards[t], rewards[0]);
}

}  // namespace
}  // namespace pafeat
