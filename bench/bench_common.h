#ifndef PAFEAT_BENCH_BENCH_COMMON_H_
#define PAFEAT_BENCH_BENCH_COMMON_H_

// Shared plumbing for the table/figure bench binaries: dataset selection,
// row-scaling so default runs finish in minutes on one CPU, and the standard
// method roster. Every bench accepts:
//   --datasets a,b,c   comma-separated Table-I names (default: the 4 small)
//   --all_datasets     run all eight paper datasets
//   --iterations N     base FEAT training iterations (scaled down for large
//                      feature counts unless --no_iteration_scaling)
//   --max_rows N       cap on instances per dataset (0 = paper-size)
//   --seed N
// Paper-fidelity runs: --all_datasets --iterations 2000 --max_rows 0
// --no_iteration_scaling (hours of CPU time).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/ant_td.h"
#include "baselines/feat_based.h"
#include "baselines/grro_ls.h"
#include "baselines/mdfs.h"
#include "baselines/no_fs.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/defaults.h"
#include "core/experiment.h"
#include "core/problem.h"
#include "data/synthetic.h"
#include "tensor/kernels.h"

namespace pafeat {
namespace bench {

struct BenchOptions {
  std::string datasets = "Emotions,Water-quality,Yeast,Physionet2012";
  bool all_datasets = false;
  int iterations = 300;
  int max_rows = 3000;
  bool no_iteration_scaling = false;
  int seed = 7;
  int threads = 1;

  void Register(FlagSet* flags) {
    flags->AddInt("threads", &threads,
                  "worker threads for episode collection");
    flags->AddString("datasets", &datasets,
                     "comma-separated Table-I dataset names");
    flags->AddBool("all_datasets", &all_datasets,
                   "run all eight paper datasets");
    flags->AddInt("iterations", &iterations, "base training iterations");
    flags->AddInt("max_rows", &max_rows,
                  "cap on instances per dataset (0 = paper size)");
    flags->AddBool("no_iteration_scaling", &no_iteration_scaling,
                   "do not scale iterations down for wide datasets");
    flags->AddInt("seed", &seed, "random seed");
  }
};

// Prints the host a timed bench ran on: the active SIMD capability level
// (after any PAFEAT_SIMD clamp) and the CPU count. Timings from different
// levels or hosts are not comparable.
inline void PrintHostTag() {
  std::printf("simd=%s num_cpus=%u\n",
              kernels::SimdCapabilityName(kernels::ActiveSimdCapability()),
              std::thread::hardware_concurrency());
}

// The Table-I specs selected by the options, with the row cap applied.
inline std::vector<SyntheticSpec> SelectSpecs(const BenchOptions& options) {
  std::vector<SyntheticSpec> specs;
  if (options.all_datasets) {
    specs = PaperDatasetSpecs();
  } else {
    for (const std::string& raw : Split(options.datasets, ',')) {
      const std::string name = Trim(raw);
      if (name.empty()) continue;
      const auto spec = PaperSpecByName(name);
      PF_CHECK(spec.has_value()) << "unknown dataset '" << name << "'";
      specs.push_back(*spec);
    }
  }
  PF_CHECK(!specs.empty());
  if (options.max_rows > 0) {
    for (SyntheticSpec& spec : specs) {
      spec.num_instances = std::min(spec.num_instances, options.max_rows);
    }
  }
  return specs;
}

// Wide datasets have m-step episodes and m-sized networks; scale the
// iteration count so default runs stay tractable while the per-iteration
// *time* comparison (Table II) remains honest.
inline int ScaledIterations(const BenchOptions& options, int num_features) {
  if (options.no_iteration_scaling) return options.iterations;
  const double scale = std::min(1.0, 150.0 / num_features);
  return std::max(10, static_cast<int>(std::lround(options.iterations * scale)));
}

// A generated dataset plus its problem wrapper, ready for selectors.
struct BenchProblem {
  SyntheticDataset dataset;
  std::unique_ptr<FsProblem> problem;
};

inline BenchProblem MakeBenchProblem(const SyntheticSpec& spec,
                                     const BenchOptions& options) {
  BenchProblem bench;
  bench.dataset = GenerateSynthetic(spec);
  bench.problem = std::make_unique<FsProblem>(
      bench.dataset.table, DefaultProblemConfig(), options.seed + 1);
  return bench;
}

inline FeatBasedOptions MakeFeatOptions(const BenchOptions& options,
                                        int num_features) {
  FeatBasedOptions feat_options =
      DefaultFeatOptions(ScaledIterations(options, num_features),
                         static_cast<uint64_t>(options.seed) + 13);
  feat_options.feat.num_threads = options.threads;
  return feat_options;
}

// ---------------------------------------------------------------------------
// Fig 5 / Fig 6 sweep engine: Avg F1-score / Avg AUC of every multi-task
// method vs. the max feature ratio, per dataset.
// ---------------------------------------------------------------------------

// Builds the Fig-5/6 multi-task method roster (fresh instances; FEAT-based
// methods retrain per mfr point).
inline std::vector<std::unique_ptr<FeatureSelector>> MakeMultiTaskRoster(
    const BenchOptions& options, int num_features) {
  const FeatBasedOptions feat_options = MakeFeatOptions(options, num_features);
  std::vector<std::unique_ptr<FeatureSelector>> roster;
  roster.push_back(std::make_unique<PaFeatSelector>(feat_options));
  roster.push_back(std::make_unique<PopArtSelector>(feat_options));
  roster.push_back(std::make_unique<GoExploreSelector>(feat_options));
  roster.push_back(std::make_unique<RewardRandomizationSelector>(feat_options));
  roster.push_back(std::make_unique<GrroLsSelector>());
  roster.push_back(std::make_unique<AntTdSelector>());
  roster.push_back(std::make_unique<MdfsSelector>());
  return roster;
}

// Runs the mfr sweep for one metric ("F1" or "AUC") and prints one table
// per dataset: rows = methods (plus SVM/DNN no-FS references), columns =
// mfr values. When csv_prefix is non-empty, each dataset's table is also
// written to <csv_prefix>_<dataset>.csv for plotting.
inline void RunMfrSweep(const BenchOptions& options,
                        const std::vector<double>& mfr_values,
                        const std::string& metric,
                        const std::string& csv_prefix = "") {
  const bool use_f1 = metric == "F1";
  for (const SyntheticSpec& spec : SelectSpecs(options)) {
    BenchProblem bench = MakeBenchProblem(spec, options);
    const std::vector<int> seen = bench.dataset.SeenTaskIndices();
    const std::vector<int> unseen = bench.dataset.UnseenTaskIndices();

    std::vector<std::string> header = {"Method \\ mfr"};
    for (double mfr : mfr_values) header.push_back(FormatDouble(mfr, 1));
    TablePrinter table(header);

    // Feature-selecting methods: one fresh instance per mfr point.
    const std::vector<std::string> method_names = {
        "PA-FEAT", "PopArt", "Go-Explore", "RR", "GRRO-LS", "Ant-TD", "MDFS"};
    for (size_t method_index = 0; method_index < method_names.size();
         ++method_index) {
      std::vector<double> row_values;
      for (double mfr : mfr_values) {
        auto roster = MakeMultiTaskRoster(options, spec.num_features);
        const MethodEvaluation evaluation = EvaluateMethod(
            bench.problem.get(), seen, unseen, mfr,
            roster[method_index].get(), options.seed + 101);
        row_values.push_back(use_f1 ? evaluation.avg_f1 : evaluation.avg_auc);
      }
      table.AddRow(method_names[method_index], row_values, 4);
    }

    // No-FS references are mfr-independent flat lines.
    NoFsSelector svm("SVM");
    const MethodEvaluation svm_eval = EvaluateMethod(
        bench.problem.get(), seen, unseen, 1.0, &svm, options.seed + 103);
    table.AddRow("SVM (no FS)",
                 std::vector<double>(mfr_values.size(),
                                     use_f1 ? svm_eval.avg_f1
                                            : svm_eval.avg_auc),
                 4);
    const DownstreamScore dnn = AverageDnnAllFeatures(
        bench.problem.get(), unseen, DefaultProblemConfig().classifier,
        options.seed + 104);
    table.AddRow("DNN (no FS)",
                 std::vector<double>(mfr_values.size(),
                                     use_f1 ? dnn.f1 : dnn.auc),
                 4);

    std::printf("dataset: %s (%d rows, %d features, %zu seen, %zu unseen)\n",
                spec.name.c_str(), bench.dataset.table.num_rows(),
                spec.num_features, seen.size(), unseen.size());
    std::printf("Avg %s among unseen tasks vs max feature ratio:\n%s\n",
                metric.c_str(), table.ToText().c_str());
    std::fflush(stdout);
    if (!csv_prefix.empty()) {
      const std::string path = csv_prefix + "_" + spec.name + ".csv";
      std::ofstream csv(path);
      if (csv) {
        csv << table.ToCsv();
        std::printf("(csv written to %s)\n", path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
      }
    }
  }
}

}  // namespace bench
}  // namespace pafeat

#endif  // PAFEAT_BENCH_BENCH_COMMON_H_
