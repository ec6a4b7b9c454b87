// Quickstart: train PA-FEAT on a small synthetic multi-task dataset, then
// perform fast feature selection for an unseen task and compare the selected
// subset's downstream quality against using all features.
//
//   ./build/examples/example_quickstart [--iterations 150]

#include <cstdio>

#include "common/flags.h"
#include "core/defaults.h"
#include "core/experiment.h"
#include "core/pafeat.h"
#include "data/synthetic.h"

using namespace pafeat;

int main(int argc, char** argv) {
  int iterations = 400;
  double mfr = 0.5;
  int seed = 7;
  FlagSet flags;
  flags.AddInt("iterations", &iterations, "training iterations on seen tasks");
  flags.AddDouble("mfr", &mfr, "max feature ratio");
  flags.AddInt("seed", &seed, "random seed");
  if (!flags.Parse(argc, argv)) return 1;

  // 1. A structured-data table with several prediction tasks over one
  //    shared feature space (4 historical/seen tasks, 2 future/unseen).
  SyntheticSpec spec;
  spec.name = "quickstart";
  spec.num_instances = 800;
  spec.num_features = 24;
  spec.num_seen_tasks = 4;
  spec.num_unseen_tasks = 2;
  spec.seed = static_cast<uint64_t>(seed);
  SyntheticDataset dataset = GenerateSynthetic(spec);
  std::printf("dataset: %d rows, %d features, %d seen + %d unseen tasks\n",
              dataset.table.num_rows(), dataset.table.num_features(),
              dataset.num_seen_tasks(), dataset.num_unseen_tasks());

  // 2. Wrap it as a fast-feature-selection problem (70/30 split, reward
  //    classifiers pretrained lazily per task).
  FsProblem problem(dataset.table, DefaultProblemConfig(), spec.seed + 1);

  // 3. Train PA-FEAT on the seen tasks.
  PaFeatConfig config;
  config.feat = DefaultFeatOptions(iterations, spec.seed + 2).feat;
  config.feat.max_feature_ratio = mfr;
  PaFeat pafeat(&problem, dataset.SeenTaskIndices(), config);
  const double iter_seconds = pafeat.Train(iterations).mean_iteration_seconds;
  std::printf("trained %d iterations (%.1f ms/iteration)\n", iterations,
              iter_seconds * 1e3);

  // 4. Unseen tasks arrive: select features in milliseconds, then check the
  //    downstream SVM quality of the subset vs. all features.
  for (int unseen : dataset.UnseenTaskIndices()) {
    double exec_seconds = 0.0;
    const FeatureMask mask = pafeat.SelectFeatures(unseen, &exec_seconds);
    const DownstreamScore with_fs =
        EvaluateSubsetDownstream(&problem, unseen, mask, spec.seed + 3);
    const DownstreamScore all_features = EvaluateSubsetDownstream(
        &problem, unseen, FeatureMask(problem.num_features(), 1),
        spec.seed + 3);
    std::printf(
        "unseen task %d: selected %d/%d features in %.2f ms | "
        "F1 %.4f (all-features %.4f), AUC %.4f (all-features %.4f)\n",
        unseen, MaskCount(mask), problem.num_features(), exec_seconds * 1e3,
        with_fs.f1, all_features.f1, with_fs.auc, all_features.auc);
  }
  return 0;
}
