// Healthcare scenario (the paper's Fig 1): a hospital's structured data
// supports many predictive tasks over the same patient features. Historical
// tasks (in-hospital death, length of stay, ...) are seen tasks; a new
// readmission-prediction task arrives later and needs features *now*.
//
// The example trains PA-FEAT on the seen tasks, then contrasts three ways
// of serving the new task:
//   1. PA-FEAT zero-shot transfer (milliseconds),
//   2. K-Best computed from scratch (fast but redundancy-blind),
//   3. PA-FEAT + further training (§IV-D) when a time budget allows.
//
//   ./build/examples/example_healthcare_pipeline [--iterations 400]

#include <cstdio>

#include "baselines/kbest.h"
#include "common/flags.h"
#include "core/defaults.h"
#include "core/experiment.h"
#include "core/pafeat.h"
#include "data/synthetic.h"

using namespace pafeat;

int main(int argc, char** argv) {
  int iterations = 500;
  int further_iterations = 150;
  double mfr = 0.3;  // ICU dashboards want few, interpretable features
  FlagSet flags;
  flags.AddInt("iterations", &iterations, "offline training iterations");
  flags.AddInt("further_iterations", &further_iterations,
               "optional further-training budget");
  flags.AddDouble("mfr", &mfr, "max feature ratio");
  if (!flags.Parse(argc, argv)) return 1;

  // A PhysioNet-2012-shaped dataset, scaled down so the example runs in
  // seconds: 41 clinical measurements, 6 historical tasks, 2 future ones.
  SyntheticSpec spec = *PaperSpecByName("Physionet2012");
  spec.num_instances = 2000;
  spec.num_seen_tasks = 6;
  spec.num_unseen_tasks = 2;
  const SyntheticDataset hospital = GenerateSynthetic(spec);
  std::printf(
      "hospital data: %d ICU stays, %d clinical features, %d historical "
      "tasks\n",
      hospital.table.num_rows(), hospital.table.num_features(),
      hospital.num_seen_tasks());

  FsProblem problem(hospital.table, DefaultProblemConfig(), 2012);

  // Offline phase: generalize feature-selection knowledge from the
  // historical tasks (runs before any new task exists).
  PaFeatConfig config;
  config.feat = DefaultFeatOptions(iterations, 41).feat;
  config.feat.max_feature_ratio = mfr;
  PaFeat pafeat(&problem, hospital.SeenTaskIndices(), config);
  const double iter_seconds = pafeat.Train(iterations).mean_iteration_seconds;
  std::printf("offline training: %d iterations, %.1f ms each\n\n", iterations,
              iter_seconds * 1e3);

  // A new analytics request arrives: predict 30-day readmission.
  const int readmission = hospital.UnseenTaskIndices()[0];
  std::printf("new task arrives: '%s'\n",
              hospital.table.label_names()[readmission].c_str());

  double exec_seconds = 0.0;
  const FeatureMask transferred =
      pafeat.SelectFeatures(readmission, &exec_seconds);
  const DownstreamScore transferred_score =
      EvaluateSubsetDownstream(&problem, readmission, transferred, 99);
  std::printf(
      "  PA-FEAT transfer: %d features in %.2f ms -> F1 %.4f, AUC %.4f\n",
      MaskCount(transferred), exec_seconds * 1e3, transferred_score.f1,
      transferred_score.auc);

  KBestSelector kbest;
  kbest.Prepare(&problem, hospital.SeenTaskIndices(), mfr);
  double kbest_seconds = 0.0;
  const FeatureMask kbest_mask =
      kbest.SelectForUnseen(&problem, readmission, &kbest_seconds);
  const DownstreamScore kbest_score =
      EvaluateSubsetDownstream(&problem, readmission, kbest_mask, 99);
  std::printf(
      "  K-Best baseline:  %d features in %.2f ms -> F1 %.4f, AUC %.4f\n",
      MaskCount(kbest_mask), kbest_seconds * 1e3, kbest_score.f1,
      kbest_score.auc);

  const DownstreamScore all_score = EvaluateSubsetDownstream(
      &problem, readmission, FeatureMask(problem.num_features(), 1), 99);
  std::printf("  all %d features:                      -> F1 %.4f, AUC %.4f\n",
              problem.num_features(), all_score.f1, all_score.auc);

  // The analyst has a few spare seconds: further-train on the new task.
  std::printf("\nfurther training on the readmission task (%d iterations):\n",
              further_iterations);
  const FeatureMask refined = pafeat.FurtherTrain(
      readmission, further_iterations, further_iterations / 3,
      [&](int iteration, const FeatureMask& mask) {
        const DownstreamScore score =
            EvaluateSubsetDownstream(&problem, readmission, mask, 99);
        std::printf("  after %3d iterations: %d features, F1 %.4f, AUC %.4f\n",
                    iteration, MaskCount(mask), score.f1, score.auc);
      });
  (void)refined;
  return 0;
}
