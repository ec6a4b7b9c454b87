// bench_compare: compares two sets of bench_pafeat result records.
//
//   bench_compare A_DIR B_DIR BENCHMARK.json
//   bench_compare --self-test
//
// Each directory holds the JSON records bench_pafeat writes with --json_out
// (benchmark/run_benchmark.sh --suite). For every workload and end-to-end
// metric of BENCHMARK.json it prints each side's median and quartiles (as
// Python's statistics.quantiles(values, n=4) computes them) and the delta of
// the medians. A metric is "unresolved" when either side's quartile spread,
// as a share of its median, is wider than the metric's bound. The exit code
// is nonzero when a metric's median worsens past its bound, when a record is
// incorrect or failed operations, when a percentile has fewer than ten
// samples beyond it, when a traced record fails a stress check, or when a
// digest or exact program counter differs between any two records of one
// workload and seed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

// ---- Minimal JSON reader (the records and BENCHMARK.json only) ----------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* Find(const std::string& key) const {
    for (const auto& [name, value] : fields) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(Json* out) {
    if (!Value(out)) return false;
    Skip();
    return pos_ == text_.size();
  }

 private:
  void Skip() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (++pos_ >= text_.size()) return false;
        const char c = text_[pos_];
        *out += c == 'n' ? '\n' : c == 't' ? '\t' : c;
      } else {
        *out += text_[pos_];
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;
    return true;
  }

  bool Value(Json* out) {
    Skip();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      Skip();
      if (pos_ < text_.size() && text_[pos_] == '}') return ++pos_, true;
      for (;;) {
        Skip();
        std::string key;
        if (!String(&key)) return false;
        Skip();
        if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
        Json value;
        if (!Value(&value)) return false;
        out->fields.emplace_back(std::move(key), std::move(value));
        Skip();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
        } else if (text_[pos_] == '}') {
          return ++pos_, true;
        } else {
          return false;
        }
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      Skip();
      if (pos_ < text_.size() && text_[pos_] == ']') return ++pos_, true;
      for (;;) {
        Json value;
        if (!Value(&value)) return false;
        out->items.push_back(std::move(value));
        Skip();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
        } else if (text_[pos_] == ']') {
          return ++pos_, true;
        } else {
          return false;
        }
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->text);
    }
    if (Literal("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->type = Json::Type::kBool;
      return true;
    }
    if (Literal("null")) return true;
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end == begin) return false;
    out->type = Json::Type::kNumber;
    pos_ += static_cast<std::size_t>(end - begin);
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool ReadJsonFile(const std::string& path, Json* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  if (!JsonParser(text).Parse(out)) {
    *error = "malformed JSON in " + path;
    return false;
  }
  return true;
}

// ---- Records and specs ----------------------------------------------------

struct Sample {
  double value = 0.0;
  long long samples = 0;
  double quantile = -1.0;
};

struct Record {
  std::string source;
  std::string workload;
  long long seed = 0;
  bool traced = false;
  bool correct = false;
  long long failed = 0;
  std::map<std::string, Sample> metrics;
  std::map<std::string, double> counters;
  std::string digest;
  std::map<std::string, bool> checks;  // traced runs: layer stress checks
};

struct MetricSpec {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0.0;
};

double Number(const Json* value) {
  return value != nullptr && value->type == Json::Type::kNumber ? value->number
                                                                : 0.0;
}

Record ToRecord(const Json& json, const std::string& source) {
  Record record;
  record.source = source;
  if (const Json* w = json.Find("workload")) record.workload = w->text;
  record.seed = static_cast<long long>(Number(json.Find("seed")));
  record.traced = Number(json.Find("trace")) != 0.0;
  const Json* correct = json.Find("correct");
  record.correct = correct != nullptr && correct->boolean;
  record.failed = static_cast<long long>(Number(json.Find("failed")));
  if (const Json* metrics = json.Find("metrics")) {
    for (const auto& [name, value] : metrics->fields) {
      Sample sample;
      sample.value = Number(value.Find("value"));
      sample.samples = static_cast<long long>(Number(value.Find("samples")));
      if (const Json* q = value.Find("quantile")) sample.quantile = q->number;
      record.metrics[name] = sample;
    }
  }
  if (const Json* counters = json.Find("counters")) {
    for (const auto& [name, value] : counters->fields) {
      record.counters[name] = value.number;
    }
  }
  if (const Json* digest = json.Find("digest")) record.digest = digest->text;
  if (const Json* checks = json.Find("checks")) {
    for (const auto& [name, value] : checks->fields) {
      record.checks[name] = value.boolean;
    }
  }
  return record;
}

bool LoadRecords(const std::string& dir, std::vector<Record>* out,
                 std::string* error) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  if (ec) {
    *error = "cannot list " + dir;
    return false;
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    Json json;
    if (!ReadJsonFile(path, &json, error)) return false;
    out->push_back(ToRecord(json, path));
  }
  if (out->empty()) {
    *error = "no .json records in " + dir;
    return false;
  }
  return true;
}

bool LoadSpecs(const std::string& path, std::vector<MetricSpec>* out,
               std::string* error) {
  Json json;
  if (!ReadJsonFile(path, &json, error)) return false;
  const Json* list = json.Find("end_to_end");
  if (list == nullptr || list->type != Json::Type::kArray) {
    *error = path + " has no end_to_end list";
    return false;
  }
  for (const Json& item : list->items) {
    MetricSpec spec;
    if (const Json* name = item.Find("name")) spec.name = name->text;
    if (const Json* unit = item.Find("unit")) spec.unit = unit->text;
    if (const Json* better = item.Find("better")) {
      spec.lower_is_better = better->text == "lower";
    }
    spec.bound = Number(item.Find("bound"));
    out->push_back(spec);
  }
  return true;
}

// ---- Statistics -----------------------------------------------------------

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;

  double Spread() const {
    return median != 0.0 ? (q3 - q1) / std::abs(median) : 0.0;
  }
};

// Python's statistics.quantiles(values, n=4) (method "exclusive").
Quartiles QuartilesOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const int n = static_cast<int>(values.size());
  if (n == 0) return {};
  if (n == 1) return {values[0], values[0], values[0]};
  double cut[3];
  const int m = n + 1;
  for (int i = 1; i <= 3; ++i) {
    const int j = std::clamp(i * m / 4, 1, n - 1);
    const int delta = i * m - j * 4;
    cut[i - 1] = (values[j - 1] * (4 - delta) + values[j] * delta) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

// ---- Comparison -------------------------------------------------------------

struct Outcome {
  int regressions = 0;
  int unresolved = 0;
  int errors = 0;
  std::vector<std::string> lines;

  bool ok() const { return regressions == 0 && errors == 0; }
  void Error(const std::string& why) {
    ++errors;
    lines.push_back("ERROR " + why);
  }
};

// A percentile needs at least ten samples beyond it to be reported.
void CheckTails(const Record& record, Outcome* outcome) {
  for (const auto& [name, sample] : record.metrics) {
    if (sample.quantile > 0.5 &&
        sample.samples * (1.0 - sample.quantile) < 10.0 - 1e-9) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s: %s is p%g of %lld samples, fewer than 10 beyond",
                    record.source.c_str(), name.c_str(), sample.quantile * 100,
                    sample.samples);
      outcome->Error(line);
    }
  }
}

std::string FormatCounters(const std::map<std::string, double>& counters) {
  std::string out;
  for (const auto& [name, value] : counters) {
    char item[128];
    std::snprintf(item, sizeof(item), "%s%s=%.17g", out.empty() ? "" : " ",
                  name.c_str(), value);
    out += item;
  }
  return out;
}

Outcome Compare(const std::vector<Record>& a, const std::vector<Record>& b,
                const std::vector<MetricSpec>& specs) {
  Outcome outcome;
  std::vector<const Record*> all;
  for (const Record& r : a) all.push_back(&r);
  for (const Record& r : b) all.push_back(&r);

  // Correctness, tail sample counts, and exact counters per (workload, seed).
  std::map<std::pair<std::string, long long>, const Record*> reference;
  for (const Record* r : all) {
    if (!r->correct || r->failed != 0) {
      outcome.Error(r->source + ": incorrect run (" +
                    std::to_string(r->failed) + " failed)");
    }
    CheckTails(*r, &outcome);
    // A workload that no longer stresses the layer it was chosen for.
    for (const auto& [check, passed] : r->checks) {
      if (!passed) outcome.Error(r->source + ": stress check failed: " + check);
    }
    const auto key = std::make_pair(r->workload, r->seed);
    const auto [it, inserted] = reference.emplace(key, r);
    if (inserted) continue;
    const Record& ref = *it->second;
    if (r->digest != ref.digest) {
      outcome.Error(r->source + ": digest " + r->digest + " != " + ref.digest +
                    " of " + ref.source);
    }
    if (r->counters != ref.counters) {
      outcome.Error(r->source + ": counters {" + FormatCounters(r->counters) +
                    "} != {" + FormatCounters(ref.counters) + "} of " +
                    ref.source);
    }
  }

  std::vector<std::string> workloads;
  for (const Record* r : all) {
    if (std::find(workloads.begin(), workloads.end(), r->workload) ==
        workloads.end()) {
      workloads.push_back(r->workload);
    }
  }
  char line[512];
  std::snprintf(line, sizeof(line),
                "%-20s %-12s %-34s %-34s %9s %6s  %s", "workload", "metric",
                "A median [q1, q3]", "B median [q1, q3]", "delta", "bound",
                "status");
  outcome.lines.push_back(line);
  for (const std::string& workload : workloads) {
    for (const MetricSpec& spec : specs) {
      std::vector<double> va;
      std::vector<double> vb;
      for (const Record& r : a) {
        if (r.workload == workload && !r.traced && r.metrics.count(spec.name)) {
          va.push_back(r.metrics.at(spec.name).value);
        }
      }
      for (const Record& r : b) {
        if (r.workload == workload && !r.traced && r.metrics.count(spec.name)) {
          vb.push_back(r.metrics.at(spec.name).value);
        }
      }
      if (va.empty() || vb.empty()) {
        outcome.Error(workload + " " + spec.name +
                      ": no untraced values on one side");
        continue;
      }
      const Quartiles qa = QuartilesOf(va);
      const Quartiles qb = QuartilesOf(vb);
      const double delta =
          qa.median != 0.0 ? (qb.median - qa.median) / std::abs(qa.median)
                           : 0.0;
      const bool worse = spec.lower_is_better ? delta > spec.bound
                                              : delta < -spec.bound;
      const bool unresolved =
          qa.Spread() > spec.bound || qb.Spread() > spec.bound;
      std::string status = "ok";
      if (worse) {
        ++outcome.regressions;
        status = "REGRESSED";
      }
      if (unresolved) {
        ++outcome.unresolved;
        status += " unresolved";
      }
      char side_a[64];
      char side_b[64];
      std::snprintf(side_a, sizeof(side_a), "%.5g [%.5g, %.5g] %s", qa.median,
                    qa.q1, qa.q3, spec.unit.c_str());
      std::snprintf(side_b, sizeof(side_b), "%.5g [%.5g, %.5g] %s", qb.median,
                    qb.q1, qb.q3, spec.unit.c_str());
      std::snprintf(line, sizeof(line), "%-20s %-12s %-34s %-34s %+8.2f%% %5.0f%%  %s",
                    workload.c_str(), spec.name.c_str(), side_a, side_b,
                    delta * 100.0, spec.bound * 100.0, status.c_str());
      outcome.lines.push_back(line);
    }
  }
  return outcome;
}

// ---- Self-test ----------------------------------------------------------------

Record FakeRecord(const std::string& workload, double value, bool traced = false) {
  Record r;
  r.source = "fake/" + workload;
  r.workload = workload;
  r.seed = 1;
  r.traced = traced;
  r.correct = true;
  r.metrics["op_ms_mean"] = {value, 1000, -1.0};
  r.metrics["op_ms_tail"] = {value * 2, 1000, 0.99};
  r.counters["core.iterations"] = 20;
  r.digest = "0123456789abcdef";
  return r;
}

std::vector<Record> FakeSet(const std::vector<double>& values) {
  std::vector<Record> set;
  for (const double v : values) set.push_back(FakeRecord("w", v));
  return set;
}

int SelfTest() {
  int failures = 0;
  const auto expect = [&](bool condition, const char* what) {
    if (!condition) {
      std::printf("FAIL: %s\n", what);
      ++failures;
    }
  };
  const auto close = [](double x, double y) { return std::abs(x - y) < 1e-12; };

  // Quartiles match statistics.quantiles(range(1, 11), n=4) and of 5 values.
  const Quartiles q10 = QuartilesOf({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect(close(q10.q1, 2.75) && close(q10.median, 5.5) && close(q10.q3, 8.25),
         "quartiles of 1..10 are 2.75 / 5.5 / 8.25");
  const Quartiles q5 = QuartilesOf({1, 2, 3, 4, 5});
  expect(close(q5.q1, 1.5) && close(q5.median, 3.0) && close(q5.q3, 4.5),
         "quartiles of 1..5 are 1.5 / 3 / 4.5");

  const std::vector<MetricSpec> specs = {{"op_ms_mean", "ms", true, 0.05},
                                         {"op_ms_tail", "ms", true, 0.10}};
  const std::vector<double> steady = {10.0, 10.1, 9.9, 10.05, 9.95};

  Outcome same = Compare(FakeSet(steady), FakeSet(steady), specs);
  expect(same.ok() && same.unresolved == 0, "identical sets pass resolved");

  std::vector<double> slower;
  for (const double v : steady) slower.push_back(v * 1.08);
  Outcome worse = Compare(FakeSet(steady), FakeSet(slower), specs);
  expect(!worse.ok() && worse.regressions == 1,
         "8% slower median regresses the 5% bound only");

  std::vector<double> faster;
  for (const double v : steady) faster.push_back(v * 0.8);
  expect(Compare(FakeSet(steady), FakeSet(faster), specs).ok(),
         "a faster median is no regression");

  Outcome noisy = Compare(FakeSet(steady), FakeSet({7, 9, 10, 11, 13}), specs);
  expect(noisy.ok() && noisy.unresolved >= 1,
         "a spread wider than the bound is unresolved, not a regression");

  std::vector<Record> counted = FakeSet(steady);
  counted[3].counters["core.iterations"] = 21;
  expect(Compare(FakeSet(steady), counted, specs).errors == 1,
         "a counter differing between repetitions is an error");
  std::vector<Record> digested = FakeSet(steady);
  digested[0].digest = "fedcba9876543210";
  expect(!Compare(FakeSet(steady), digested, specs).ok(),
         "a digest differing between sides is an error");
  std::vector<Record> other_seed = FakeSet(steady);
  other_seed[0].seed = 2;
  other_seed[0].counters["core.iterations"] = 99;
  expect(Compare(FakeSet(steady), other_seed, specs).ok(),
         "counters are compared only within one seed");

  std::vector<Record> thin = FakeSet(steady);
  thin[0].metrics["op_ms_tail"].samples = 999;  // 9.99 beyond p99
  expect(Compare(FakeSet(steady), thin, specs).errors == 1,
         "p99 over 999 samples has fewer than 10 beyond");
  thin[0].metrics["op_ms_tail"] = {20.0, 100, 0.9};  // exactly 10 beyond p90
  expect(Compare(FakeSet(steady), thin, specs).ok(),
         "p90 over 100 samples has 10 beyond");

  std::vector<Record> failed = FakeSet(steady);
  failed[2].failed = 1;
  failed[2].correct = false;
  expect(!Compare(FakeSet(steady), failed, specs).ok(),
         "a run with failed operations is an error");

  std::vector<Record> traced = FakeSet(steady);
  traced.push_back(FakeRecord("w", 50.0, /*traced=*/true));
  expect(Compare(FakeSet(steady), traced, specs).ok(),
         "traced runs do not enter the end-to-end medians");
  traced.back().checks["batch_width_mean > 2"] = true;
  expect(Compare(FakeSet(steady), traced, specs).ok(),
         "a passing stress check is no error");
  traced.back().checks["swaps_applied >= 15"] = false;
  expect(Compare(FakeSet(steady), traced, specs).errors == 1,
         "a failed stress check in a traced run is an error");

  std::printf("bench_compare self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test") return SelfTest();
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: bench_compare A_DIR B_DIR BENCHMARK.json | "
                 "--self-test\n");
    return 2;
  }
  std::vector<Record> a;
  std::vector<Record> b;
  std::vector<MetricSpec> specs;
  std::string error;
  if (!LoadRecords(argv[1], &a, &error) || !LoadRecords(argv[2], &b, &error) ||
      !LoadSpecs(argv[3], &specs, &error)) {
    std::fprintf(stderr, "bench_compare: %s\n", error.c_str());
    return 2;
  }
  const Outcome outcome = Compare(a, b, specs);
  for (const std::string& line : outcome.lines) std::printf("%s\n", line.c_str());
  std::printf("%d regressed, %d unresolved, %d errors: %s\n",
              outcome.regressions, outcome.unresolved, outcome.errors,
              outcome.ok() ? "PASS" : "FAIL");
  return outcome.ok() ? 0 : 1;
}
