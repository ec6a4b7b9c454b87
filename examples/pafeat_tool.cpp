// pafeat_tool: a command-line driver for the whole workflow on your own
// data — the shape of a production integration.
//
// Subcommands:
//   demo                         write a demo CSV dataset to --data
//   train    --data d.csv --labels a,b --out agent.ckpt [--iterations N]
//            train on the given label columns (the seen tasks) and save the
//            agent checkpoint
//   select   --data d.csv --label c --agent agent.ckpt
//            fast feature selection for a (possibly unseen) label using a
//            saved agent; prints the selected feature names and downstream
//            quality
//   info     --agent agent.ckpt   print checkpoint metadata
//
// Data formats: CSV as written by WriteTableCsv (label columns prefixed
// "label:"), or ARFF (Mulan) via --arff_labels N (last-N-attributes
// convention).

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/checkpoint.h"
#include "core/defaults.h"
#include "core/experiment.h"
#include "core/explain.h"
#include "core/pafeat.h"
#include "data/arff.h"
#include "data/csv.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "memory/budget.h"

using namespace pafeat;

namespace {

std::optional<Table> LoadData(const std::string& path, int arff_labels) {
  if (path.size() > 5 && path.substr(path.size() - 5) == ".arff") {
    const auto document = ReadArffFile(path);
    if (!document.has_value()) return std::nullopt;
    return ArffToTableLastLabels(*document, arff_labels);
  }
  return ReadTableCsv(path);
}

int LabelIndexByName(const Table& table, const std::string& name) {
  for (int i = 0; i < table.num_labels(); ++i) {
    if (table.label_names()[i] == name) return i;
  }
  return -1;
}

int RunDemo(const std::string& data_path) {
  SyntheticSpec spec;
  spec.name = "demo";
  spec.num_instances = 600;
  spec.num_features = 18;
  spec.num_seen_tasks = 3;
  spec.num_unseen_tasks = 1;
  spec.seed = 12345;
  const SyntheticDataset dataset = GenerateSynthetic(spec);
  if (!WriteTableCsv(dataset.table, data_path)) {
    std::fprintf(stderr, "cannot write %s\n", data_path.c_str());
    return 1;
  }
  std::printf("wrote demo dataset to %s\n", data_path.c_str());
  std::printf("label columns:");
  for (const std::string& name : dataset.table.label_names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\ntry:\n  pafeat_tool train --data %s "
              "--labels demo_seen_0,demo_seen_1,demo_seen_2 --out /tmp/demo.ckpt\n"
              "  pafeat_tool select --data %s --label demo_unseen_0 "
              "--agent /tmp/demo.ckpt\n",
              data_path.c_str(), data_path.c_str());
  return 0;
}

// Converts a --max_cache_mb flag value to the budget convention of
// memory/budget.h: negative leaves the resolution chain untouched, 0 is an
// explicit "unlimited", positive is megabytes.
long long BudgetMbToBytes(int mb) {
  if (mb < 0) return kMemoryBudgetDefault;
  if (mb == 0) return kMemoryBudgetUnlimited;
  return static_cast<long long>(mb) * 1024 * 1024;
}

int RunTrain(const Table& table, const std::string& labels_csv,
             const std::string& out_path, int iterations, double mfr,
             int seed, int num_threads, int max_cache_mb,
             int replay_budget_mb) {
  if (iterations < 1) {
    std::fprintf(stderr, "--iterations must be >= 1\n");
    return 1;
  }
  if (!(mfr > 0.0 && mfr <= 1.0)) {
    std::fprintf(stderr, "--mfr must be in (0, 1]\n");
    return 1;
  }
  if (num_threads < 1) {
    std::fprintf(stderr, "--num_threads must be >= 1\n");
    return 1;
  }
  std::vector<int> seen;
  for (const std::string& raw : Split(labels_csv, ',')) {
    const int index = LabelIndexByName(table, Trim(raw));
    if (index < 0) {
      std::fprintf(stderr, "label '%s' not found in data\n",
                   Trim(raw).c_str());
      return 1;
    }
    seen.push_back(index);
  }
  if (seen.empty()) {
    std::fprintf(stderr, "--labels must name at least one seen task\n");
    return 1;
  }

  FsProblemConfig problem_config = DefaultProblemConfig();
  problem_config.reward_cache_budget_bytes = BudgetMbToBytes(max_cache_mb);
  FsProblem problem(table, problem_config, static_cast<uint64_t>(seed));
  PaFeatConfig config;
  config.feat = DefaultFeatOptions(iterations,
                                   static_cast<uint64_t>(seed) + 1).feat;
  config.feat.max_feature_ratio = mfr;
  if (replay_budget_mb > 0) {
    config.feat.replay_budget_bytes =
        static_cast<std::size_t>(replay_budget_mb) * 1024 * 1024;
  }
  config.feat.num_threads = num_threads;
  PaFeat pafeat(&problem, seen, config);
  std::printf("training on %zu seen tasks, %d iterations...\n", seen.size(),
              iterations);
  const double iter_seconds = pafeat.Train(iterations).mean_iteration_seconds;
  std::printf("done (%.1f ms/iteration)\n", iter_seconds * 1e3);

  if (!SaveCheckpoint(MakeCheckpoint(pafeat.feat()), out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("saved agent to %s\n", out_path.c_str());
  return 0;
}

int RunSelect(const Table& table, const std::string& label,
              const std::string& agent_path, int seed, bool quantized) {
  const int index = LabelIndexByName(table, label);
  if (index < 0) {
    std::fprintf(stderr, "label '%s' not found in data\n", label.c_str());
    return 1;
  }
  ServeConfig serve;
  serve.quantized = quantized;
  const auto selector = CheckpointedSelector::FromFile(agent_path, serve);
  if (!selector.has_value()) {
    std::fprintf(stderr, "cannot load agent from %s\n", agent_path.c_str());
    return 1;
  }
  if (selector->num_features() != table.num_features()) {
    std::fprintf(stderr,
                 "agent was trained on %d features but the data has %d\n",
                 selector->num_features(), table.num_features());
    return 1;
  }

  FsProblem problem(table, DefaultProblemConfig(),
                    static_cast<uint64_t>(seed));
  WallTimer timer;
  const std::vector<float> repr = problem.ComputeTaskRepresentation(index);
  const FeatureMask mask = selector->SelectForRepresentation(repr);
  const double exec_ms = timer.ElapsedMillis();

  std::printf("selected %d/%d features in %.2f ms%s (* = selected; q-gap is\n"
              "the policy's select-vs-deselect advantage, the audit view):\n",
              MaskCount(mask), table.num_features(), exec_ms,
              selector->quantized() ? " [int8 serving tier]" : "");
  if (const auto checkpoint = LoadCheckpoint(agent_path);
      checkpoint.has_value()) {
    Rng net_rng(0);
    DuelingNet net(checkpoint->net_config, &net_rng);
    net.DeserializeParams(checkpoint->parameters);
    for (const FeatureDecision& decision : RankedDecisions(ExplainSelection(
             net, repr, checkpoint->max_feature_ratio))) {
      std::printf("  %c %-20s q-gap %+.4f\n",
                  mask[decision.feature] ? '*' : ' ',
                  table.feature_names()[decision.feature].c_str(),
                  decision.q_gap);
    }
  }
  const DownstreamScore score =
      EvaluateSubsetDownstream(&problem, index, mask, seed + 7);
  const DownstreamScore all = EvaluateSubsetDownstream(
      &problem, index, FeatureMask(table.num_features(), 1), seed + 7);
  std::printf("downstream SVM: F1 %.4f (all features %.4f), AUC %.4f "
              "(all features %.4f)\n",
              score.f1, all.f1, score.auc, all.auc);
  return 0;
}

int RunInfo(const std::string& agent_path) {
  const auto checkpoint = LoadCheckpoint(agent_path);
  if (!checkpoint.has_value()) {
    std::fprintf(stderr, "cannot load %s\n", agent_path.c_str());
    return 1;
  }
  std::printf("agent checkpoint %s:\n", agent_path.c_str());
  std::printf("  features:          %d\n",
              (checkpoint->net_config.input_dim - 3) / 2);
  std::printf("  max feature ratio: %.2f\n", checkpoint->max_feature_ratio);
  std::printf("  trunk hidden dims:");
  for (int h : checkpoint->net_config.trunk_hidden) std::printf(" %d", h);
  std::printf("\n  parameters:        %zu\n", checkpoint->parameters.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: pafeat_tool <demo|train|select|info> [flags]\n");
    return 1;
  }
  const std::string command = argv[1];

  std::string data = "/tmp/pafeat_demo.csv";
  std::string labels;
  std::string label;
  std::string agent = "/tmp/pafeat_agent.ckpt";
  std::string out = "/tmp/pafeat_agent.ckpt";
  int iterations = 400;
  double mfr = 0.5;
  int seed = 7;
  int num_threads = 1;
  int max_cache_mb = -1;
  int replay_budget_mb = -1;
  int arff_labels = 1;
  bool quantized = false;
  FlagSet flags;
  flags.AddString("data", &data, "CSV or .arff dataset path");
  flags.AddString("labels", &labels, "train: comma-separated seen labels");
  flags.AddString("label", &label, "select: target label name");
  flags.AddString("agent", &agent, "select/info: checkpoint path");
  flags.AddString("out", &out, "train: output checkpoint path");
  flags.AddInt("iterations", &iterations, "train: iterations");
  flags.AddDouble("mfr", &mfr, "train: max feature ratio");
  flags.AddInt("seed", &seed, "random seed");
  flags.AddInt("num_threads", &num_threads,
               "train: episode threads (results are identical at any value)");
  flags.AddInt("max_cache_mb", &max_cache_mb,
               "train: per-task reward-cache budget in MB (0 = unlimited, "
               "-1 = default chain; results are identical at any budget)");
  flags.AddInt("replay_budget_mb", &replay_budget_mb,
               "train: per-task replay-buffer budget in MB (0 or less = "
               "unlimited)");
  flags.AddInt("arff_labels", &arff_labels,
               "ARFF: number of trailing label attributes");
  flags.AddBool("quantized", &quantized,
                "select: serve from the int8 quantized tier (subset-match "
                "validated, outside the bitwise contract)");
  if (!flags.Parse(argc - 1, argv + 1)) return 1;

  if (command == "demo") return RunDemo(data);
  if (command == "info") return RunInfo(agent);

  const auto table = LoadData(data, arff_labels);
  if (!table.has_value()) {
    std::fprintf(stderr, "cannot load dataset from %s\n", data.c_str());
    return 1;
  }
  if ((command == "train" || command == "select") &&
      table->num_rows() < kMinProblemRows) {
    std::fprintf(stderr, "%s has %d data rows; %s needs at least %d\n",
                 data.c_str(), table->num_rows(), command.c_str(),
                 kMinProblemRows);
    return 1;
  }
  if (command == "train") {
    return RunTrain(*table, labels, out, iterations, mfr, seed, num_threads,
                    max_cache_mb, replay_budget_mb);
  }
  if (command == "select") {
    return RunSelect(*table, label, agent, seed, quantized);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 1;
}
