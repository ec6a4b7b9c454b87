// Reproduces Fig 7: PA-FEAT vs. the single-task feature selection methods
// (K-Best, RFE, SADRLFS, MARLFS) on Water-quality and Yeast — Avg F1-score
// together with the per-unseen-task execution time. The single-task methods
// learn from scratch inside the query, so their execution times are orders
// of magnitude larger than PA-FEAT's near-instant transfer; K-Best remains
// the only method faster than PA-FEAT, at lower quality.
//
//   ./build/bench/bench_fig7_single_task [--sadrlfs_iterations 150]

#include "baselines/kbest.h"
#include "baselines/marlfs.h"
#include "baselines/rfe.h"
#include "baselines/sadrlfs.h"
#include "bench_common.h"

using namespace pafeat;
using namespace pafeat::bench;

int main(int argc, char** argv) {
  BenchOptions options;
  options.datasets = "Water-quality,Yeast";
  int sadrlfs_iterations = 150;
  int marlfs_episodes = 400;
  double mfr = 0.5;
  FlagSet flags;
  options.Register(&flags);
  flags.AddInt("sadrlfs_iterations", &sadrlfs_iterations,
               "from-scratch DQN iterations per unseen task");
  flags.AddInt("marlfs_episodes", &marlfs_episodes,
               "MARLFS joint episodes per unseen task");
  flags.AddDouble("mfr", &mfr, "max feature ratio");
  if (!flags.Parse(argc, argv)) return 1;

  PrintHostTag();
  std::printf(
      "FIG 7: comparison with single-task feature selection baselines\n"
      "(Avg F1-score and per-unseen-task execution time)\n\n");

  for (const SyntheticSpec& spec : SelectSpecs(options)) {
    BenchProblem bench = MakeBenchProblem(spec, options);
    const std::vector<int> seen = bench.dataset.SeenTaskIndices();
    const std::vector<int> unseen = bench.dataset.UnseenTaskIndices();

    const FeatBasedOptions feat_options =
        MakeFeatOptions(options, spec.num_features);

    std::vector<std::unique_ptr<FeatureSelector>> roster;
    roster.push_back(std::make_unique<KBestSelector>());
    roster.push_back(std::make_unique<RfeSelector>());
    MarlfsConfig marlfs_config;
    marlfs_config.episodes = marlfs_episodes;
    roster.push_back(std::make_unique<MarlfsSelector>(marlfs_config));
    roster.push_back(std::make_unique<SadrlfsSelector>(sadrlfs_iterations,
                                                       feat_options.feat));
    roster.push_back(std::make_unique<PaFeatSelector>(feat_options));

    TablePrinter table(
        {"Method", "Avg F1", "Avg AUC", "Exec time (s)", "Exec vs PA-FEAT"});
    std::vector<MethodEvaluation> evaluations;
    for (auto& selector : roster) {
      evaluations.push_back(EvaluateMethod(bench.problem.get(), seen, unseen,
                                           mfr, selector.get(),
                                           options.seed + 5));
    }
    const double pafeat_exec = evaluations.back().avg_execution_seconds;
    for (const MethodEvaluation& evaluation : evaluations) {
      table.AddRow({evaluation.method, FormatDouble(evaluation.avg_f1, 4),
                    FormatDouble(evaluation.avg_auc, 4),
                    FormatDouble(evaluation.avg_execution_seconds, 4),
                    FormatDouble(evaluation.avg_execution_seconds /
                                     std::max(pafeat_exec, 1e-9),
                                 1) +
                        "x"});
    }
    std::printf("dataset: %s\n%s\n", spec.name.c_str(),
                table.ToText().c_str());
    std::fflush(stdout);
  }
  return 0;
}
