// pafeat-serve: load a checkpoint into a SelectionServer and replay task
// representations against it at a configurable client concurrency, printing
// the serving-plane counters (batch-width histogram, latency breakdown,
// swap/reject counts) as a table. The operational twin of the library's
// SelectionServer API — handy for eyeballing coalescing behavior on a real
// checkpoint, and for demoing the serving plane without one (--demo).
//
// Representation file format (--reprs): one task per line, whitespace-
// separated floats, every line the same length (the checkpoint's feature
// count). Lines are replayed round-robin across clients.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/checkpoint.h"
#include "nn/dueling_net.h"
#include "rl/fs_env.h"
#include "serve/selection_server.h"

namespace pafeat {
namespace {

AgentCheckpoint MakeDemoCheckpoint(int m, uint64_t seed) {
  AgentCheckpoint checkpoint;
  checkpoint.net_config.input_dim = 2 * m + 3;
  checkpoint.net_config.num_actions = kNumActions;
  checkpoint.net_config.trunk_hidden = {64, 64};
  checkpoint.max_feature_ratio = 0.5;
  Rng rng(seed);
  DuelingNet net(checkpoint.net_config, &rng);
  checkpoint.parameters = net.SerializeParams();
  return checkpoint;
}

bool LoadRepresentations(const std::string& path, int expected_m,
                         std::vector<std::vector<float>>* reprs) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "pafeat-serve: cannot open reprs file " << path << "\n";
    return false;
  }
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream fields(line);
    std::vector<float> repr;
    float value = 0.0f;
    while (fields >> value) repr.push_back(value);
    if (repr.empty()) continue;  // blank line
    if (static_cast<int>(repr.size()) != expected_m) {
      std::cerr << "pafeat-serve: " << path << ":" << line_number << " has "
                << repr.size() << " values; the checkpoint serves "
                << expected_m << " features\n";
      return false;
    }
    reprs->push_back(std::move(repr));
  }
  if (reprs->empty()) {
    std::cerr << "pafeat-serve: " << path << " holds no representations\n";
    return false;
  }
  return true;
}

double Percentile(std::vector<double> sorted_or_not, double p) {
  if (sorted_or_not.empty()) return 0.0;
  std::sort(sorted_or_not.begin(), sorted_or_not.end());
  const double rank = p * (sorted_or_not.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_or_not.size() - 1);
  const double frac = rank - lo;
  return sorted_or_not[lo] * (1.0 - frac) + sorted_or_not[hi] * frac;
}

std::string FormatDouble(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

int Main(int argc, char** argv) {
  std::string checkpoint_path;
  std::string reprs_path;
  bool demo = false;
  int demo_features = 64;
  int demo_tasks = 32;
  int concurrency = 8;
  int requests_per_client = 50;
  bool quantized = false;
  int max_batch = 64;
  int max_queue = 256;
  int max_wait_us = 200;

  FlagSet flags;
  flags.AddString("checkpoint", &checkpoint_path,
                  "trained agent checkpoint to serve");
  flags.AddString("reprs", &reprs_path,
                  "task representations to replay (one per line)");
  flags.AddBool("demo", &demo,
                "serve a freshly initialized demo network instead of a "
                "checkpoint (random representations unless --reprs)");
  flags.AddInt("demo_features", &demo_features,
               "feature count of the --demo network");
  flags.AddInt("demo_tasks", &demo_tasks,
               "random representations to generate under --demo");
  flags.AddInt("concurrency", &concurrency, "concurrent client threads");
  flags.AddInt("requests_per_client", &requests_per_client,
               "Select calls each client issues");
  flags.AddBool("quantized", &quantized, "serve the int8 quantized tier");
  flags.AddInt("max_batch", &max_batch, "widest coalesced forward pass");
  flags.AddInt("max_queue", &max_queue,
               "admission bound on in-flight requests");
  flags.AddInt("max_wait_us", &max_wait_us,
               "how long a lone arrival waits for peers to coalesce");
  if (!flags.Parse(argc, argv)) return 1;
  if (checkpoint_path.empty() && !demo) {
    std::cerr << "pafeat-serve: pass --checkpoint=<path> or --demo\n\n"
              << flags.Usage();
    return 1;
  }
  // Out-of-range values exit here with a status instead of tripping a
  // library precondition (a PF_CHECK abort, or a modulo by zero tasks).
  for (const auto& [flag, value, min] :
       {std::tuple{"concurrency", concurrency, 1},
        {"requests_per_client", requests_per_client, 1},
        {"max_batch", max_batch, 1}, {"max_queue", max_queue, 1},
        {"max_wait_us", max_wait_us, 0}, {"demo_features", demo_features, 1},
        {"demo_tasks", demo_tasks, 1}}) {
    if (value < min) {
      std::cerr << "pafeat-serve: --" << flag << " must be >= " << min << "\n";
      return 1;
    }
  }

  AgentCheckpoint checkpoint;
  if (demo && checkpoint_path.empty()) {
    checkpoint = MakeDemoCheckpoint(demo_features, 0x5e57e);
  } else {
    std::string error;
    const std::optional<AgentCheckpoint> loaded =
        LoadCheckpoint(checkpoint_path, &error);
    if (!loaded.has_value()) {
      std::cerr << "pafeat-serve: " << error << "\n";
      return 1;
    }
    checkpoint = *loaded;
  }
  const int m = (checkpoint.net_config.input_dim - 3) / 2;

  std::vector<std::vector<float>> reprs;
  if (!reprs_path.empty()) {
    if (!LoadRepresentations(reprs_path, m, &reprs)) return 1;
  } else if (demo) {
    Rng rng(0xd3a0);
    for (int t = 0; t < demo_tasks; ++t) {
      std::vector<float> repr(m);
      for (float& value : repr) {
        value = static_cast<float>(rng.Uniform(-1.0, 1.0));
      }
      reprs.push_back(std::move(repr));
    }
  } else {
    std::cerr << "pafeat-serve: pass --reprs=<file> (or --demo for random "
                 "representations)\n";
    return 1;
  }

  ServerConfig config;
  config.serve.quantized = quantized;
  config.max_batch = max_batch;
  config.max_queue = max_queue;
  config.max_wait_us = max_wait_us;
  SelectionServer server(checkpoint, config);

  std::cout << "pafeat-serve: " << (demo ? "demo network" : checkpoint_path)
            << " | m=" << m << " tier=" << (quantized ? "int8" : "fp32")
            << " clients=" << concurrency << " x " << requests_per_client
            << " requests | max_batch=" << max_batch
            << " max_queue=" << max_queue << " max_wait_us=" << max_wait_us
            << "\n";

  std::mutex latency_mutex;
  std::vector<double> total_us;
  std::vector<double> queue_us;
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> selected_features{0};
  WallTimer wall;
  std::vector<std::thread> clients;
  clients.reserve(concurrency);
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double> my_total, my_queue;
      my_total.reserve(requests_per_client);
      my_queue.reserve(requests_per_client);
      for (int i = 0; i < requests_per_client; ++i) {
        const std::size_t idx =
            (static_cast<std::size_t>(c) * requests_per_client + i) %
            reprs.size();
        const SelectionResponse response = server.Select(reprs[idx]);
        if (response.status != AdmissionStatus::kOk) {
          rejected.fetch_add(1);
          continue;
        }
        selected_features.fetch_add(MaskCount(response.mask));
        my_total.push_back(response.stats.total_us);
        my_queue.push_back(response.stats.queue_us);
      }
      std::lock_guard<std::mutex> lock(latency_mutex);
      total_us.insert(total_us.end(), my_total.begin(), my_total.end());
      queue_us.insert(queue_us.end(), my_queue.begin(), my_queue.end());
    });
  }
  for (std::thread& client : clients) client.join();
  const double elapsed_s = wall.ElapsedSeconds();
  server.Shutdown();

  const ServerStats stats = server.Stats();
  const double completed = static_cast<double>(stats.completed);
  TablePrinter summary({"metric", "value"});
  summary.AddRow({"completed", std::to_string(stats.completed)});
  summary.AddRow({"rejected (client view)", std::to_string(rejected.load())});
  summary.AddRow({"tasks/sec", FormatDouble(completed / elapsed_s, 1)});
  summary.AddRow({"mean batch width", FormatDouble(stats.MeanBatchWidth(), 2)});
  summary.AddRow({"coalesced steps", std::to_string(stats.steps)});
  summary.AddRow({"p50 latency (us)", FormatDouble(Percentile(total_us, 0.50), 1)});
  summary.AddRow({"p99 latency (us)", FormatDouble(Percentile(total_us, 0.99), 1)});
  summary.AddRow({"p50 queue wait (us)", FormatDouble(Percentile(queue_us, 0.50), 1)});
  summary.AddRow({"mean compute (us)",
                  FormatDouble(completed == 0.0
                                   ? 0.0
                                   : stats.compute_us_sum / completed,
                               1)});
  summary.AddRow({"queue-full rejects", std::to_string(stats.rejected_queue_full)});
  summary.AddRow({"bad-request rejects", std::to_string(stats.rejected_bad_request)});
  summary.AddRow({"checkpoint swaps", std::to_string(stats.swaps_applied)});
  summary.AddRow({"net version", std::to_string(stats.net_version)});
  summary.AddRow({"mean features/task",
                  FormatDouble(completed == 0.0
                                   ? 0.0
                                   : static_cast<double>(
                                         selected_features.load()) /
                                         completed,
                               2)});
  std::cout << summary.ToText() << "\n";

  // The batch-width histogram is the coalescing story in one table: under
  // concurrency the mass should sit well above width 1.
  TablePrinter histogram({"batch width", "steps", "share"});
  for (int w = 1; w < static_cast<int>(stats.batch_width_hist.size()); ++w) {
    if (stats.batch_width_hist[w] == 0) continue;
    histogram.AddRow(
        {std::to_string(w), std::to_string(stats.batch_width_hist[w]),
         FormatDouble(100.0 * static_cast<double>(stats.batch_width_hist[w]) /
                          static_cast<double>(stats.steps),
                      1) +
             "%"});
  }
  std::cout << histogram.ToText();
  return 0;
}

}  // namespace
}  // namespace pafeat

int main(int argc, char** argv) { return pafeat::Main(argc, argv); }
