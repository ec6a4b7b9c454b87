// Reproduces Table II: average training-iteration time and average
// execution time (seconds) of the FEAT-framework methods (PopArt,
// Go-Explore, RR, PA-FEAT) on the eight datasets.
//
// Absolute numbers differ from the paper (CPU MLPs vs. 8x RTX 3090), but
// the shape carries: iteration time grows with the feature count, the
// method ordering holds (Go-Explore < PopArt/PA-FEAT < RR), and the
// execution times of all four methods are nearly identical because they
// share the same execution path (representation + one greedy episode).
//
//   ./build/bench/bench_table2_timing --all_datasets [--iterations 5]

#include "bench_common.h"

using namespace pafeat;
using namespace pafeat::bench;

int main(int argc, char** argv) {
  BenchOptions options;
  options.datasets =
      "Emotions,Water-quality,Yeast,Physionet2012,Computers,Mediamill,"
      "Business,Entertainment";
  options.iterations = 5;   // Table II measures time/iteration, not quality
  options.max_rows = 0;     // keep paper-size n: execution time scales with n
  FlagSet flags;
  options.Register(&flags);
  if (!flags.Parse(argc, argv)) return 1;

  PrintHostTag();
  std::printf(
      "TABLE II: average iteration time during training and average\n"
      "execution time (in seconds)\n\n");
  TablePrinter table({"Dataset", "PopArt Iter", "PopArt Exec", "GoExpl Iter",
                      "GoExpl Exec", "RR Iter", "RR Exec", "PA-FEAT Iter",
                      "PA-FEAT Exec"});

  for (const SyntheticSpec& spec : SelectSpecs(options)) {
    BenchProblem bench = MakeBenchProblem(spec, options);
    const std::vector<int> seen = bench.dataset.SeenTaskIndices();
    const std::vector<int> unseen = bench.dataset.UnseenTaskIndices();

    // Timing needs only a handful of iterations regardless of width.
    FeatBasedOptions feat_options = MakeFeatOptions(options, spec.num_features);
    feat_options.train_iterations = std::max(1, options.iterations);

    std::vector<std::unique_ptr<FeatureSelector>> roster;
    roster.push_back(std::make_unique<PopArtSelector>(feat_options));
    roster.push_back(std::make_unique<GoExploreSelector>(feat_options));
    roster.push_back(std::make_unique<RewardRandomizationSelector>(feat_options));
    roster.push_back(std::make_unique<PaFeatSelector>(feat_options));

    std::vector<double> row;
    for (auto& selector : roster) {
      const MethodEvaluation evaluation =
          EvaluateMethod(bench.problem.get(), seen, unseen, 0.5,
                         selector.get(), options.seed + 11);
      row.push_back(evaluation.mean_iteration_seconds);
      row.push_back(evaluation.avg_execution_seconds);
    }
    // Reorder to the paper's column layout.
    table.AddRow(spec.name, row, 4);
    std::fflush(stdout);
  }
  std::printf("%s\n", table.ToText().c_str());
  return 0;
}
