// pafeat-analyze: cross-TU semantic stage of the in-house static analysis.
//
// Where pafeat-lint pattern-matches tokens file-by-file, this pass builds a
// declaration/definition index and a call graph over the whole tree (default:
// src/ relative to --root) and runs reachability rules that promote the
// repo's runtime contracts to static, whole-program guarantees:
//
//   rng-escape              nothing reachable from a ParallelFor/Submit body
//                           touches the shared root `rng_` (classes annotated
//                           `// analyze: root-rng` on the member); forked
//                           streams flow in by value instead
//   borrow-across-mutation  no call path from a scope holding a
//                           ReplayBuffer::ReadGuard to AddTrajectory — the
//                           PF_DCHECK borrow flag, decided at analysis time
//   hot-path-alloc          functions reachable from steady-state roots
//                           (`// analyze: hot-path-root`) do not allocate
//                           outside the tensor/arena TUs
//   pool-reentrancy         no nested pool submission (it degrades to inline
//                           execution); a deliberate inline degradation
//                           (the GEMM panel split) carries a justified
//                           pragma
//
// Deliberate exceptions reuse the token stage's pragma machinery:
//   // lint: allow(<rule>): <justification>
//
// Exit status: 0 clean, 1 findings, 2 usage/IO error.
//
// Usage:
//   pafeat-analyze [--root DIR] [--format=human|machine|sarif]
//                  [--list-rules] [--self-test] [DIR_OR_FILE...]

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze_rules.h"
#include "index.h"
#include "sarif.h"

namespace pafeat_lint {
namespace {

namespace fs = std::filesystem;

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".h" || ext == ".hpp" ||
         ext == ".inl";
}

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

void CollectFiles(const fs::path& target, std::vector<fs::path>* files) {
  if (fs::is_regular_file(target)) {
    if (HasSourceExtension(target)) files->push_back(target);
    return;
  }
  std::vector<fs::path> found;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(target)) {
    if (entry.is_regular_file() && HasSourceExtension(entry.path())) {
      found.push_back(entry.path());
    }
  }
  std::sort(found.begin(), found.end());
  files->insert(files->end(), found.begin(), found.end());
}

int AnalyzeFiles(const std::vector<fs::path>& files,
                 const std::string& format) {
  Program program;
  for (const fs::path& path : files) {
    std::string content;
    if (!ReadFile(path, &content)) {
      std::cerr << "pafeat-analyze: cannot read " << path << "\n";
      return 2;
    }
    const std::string display = path.generic_string();
    const std::string norm = fs::absolute(path).generic_string();
    IndexFile(display, norm, Lex(norm, content), &program);
  }
  FinalizeProgram(&program);
  const std::vector<Finding> findings = RunAnalyzeRules(program);

  if (format == "sarif") {
    std::cout << ToSarif("pafeat-analyze", findings);
    return findings.empty() ? 0 : 1;
  }
  for (const Finding& f : findings) {
    if (format == "machine") {
      std::cout << f.file << ":" << f.line << " " << f.rule << "\n";
    } else {
      std::cout << f.file << ":" << f.line << ": error: [" << f.rule << "] "
                << f.message << "\n";
      if (!f.hint.empty()) std::cout << "  hint: " << f.hint << "\n";
    }
  }
  if (format == "human") {
    if (findings.empty()) {
      std::cout << "pafeat-analyze: " << files.size() << " files, "
                << program.defs.size() << " definitions, "
                << program.calls.size() << " call sites — clean\n";
    } else {
      std::cout << "pafeat-analyze: " << findings.size()
                << " finding(s) across " << files.size() << " files\n";
    }
  }
  return findings.empty() ? 0 : 1;
}

// --- self test -------------------------------------------------------------
// Multi-file fixtures (the rules are cross-TU, so cases carry several
// pretend TUs); expectations are sorted rule multisets, mirroring the token
// stage's self-test harness.

struct SelfFile {
  const char* path;
  const char* source;
};

struct SelfCase {
  const char* name;
  std::vector<SelfFile> files;
  std::vector<std::string> expected_rules;
};

// Shared fixture fragments. The class header mirrors src/core/feat.h: the
// root stream is annotated on the member declaration.
constexpr char kFeatHeader[] =
    "class Feat {\n"
    " public:\n"
    "  void Collect();\n"
    "  int StepShard(int s);\n"
    " private:\n"
    "  int seed_ = 0;\n"
    "  Rng rng_;  // analyze: root-rng\n"
    "};\n";

int SelfTest() {
  const std::vector<SelfCase> cases = {
      // --- rng-escape ------------------------------------------------------
      // The acceptance fixture: replace the forked shard stream with a direct
      // root `rng_` use (i.e. delete the `Rng::Fork` discipline) and the
      // analyzer catches it.
      {"rng-escape-direct-touch",
       {{"src/core/feat.h", kFeatHeader},
        {"src/core/feat.cc",
         "void Feat::Collect() {\n"
         "  ThreadPool::Global()->ParallelFor(4, 4, [&](int s) {\n"
         "    rng_.UniformInt(s);\n"
         "  });\n"
         "}\n"}},
       {"rng-escape"}},
      {"rng-escape-cross-tu",
       {{"src/core/feat.h", kFeatHeader},
        {"src/core/feat.cc",
         "void Feat::Collect() {\n"
         "  ThreadPool::Global()->ParallelFor(4, 4, [&](int s) {\n"
         "    StepShard(s);\n"
         "  });\n"
         "}\n"},
        {"src/core/feat_step.cc",
         "int Feat::StepShard(int s) { return rng_.UniformInt(s); }\n"}},
       {"rng-escape"}},
      {"rng-escape-forked-stream-ok",
       {{"src/core/feat.h", kFeatHeader},
        {"src/core/feat.cc",
         "void Feat::Collect() {\n"
         "  Rng shard_root(seed_);\n"
         "  ThreadPool::Global()->ParallelFor(4, 4, [&](int s) {\n"
         "    Rng shard_rng = shard_root.Fork(0, s);\n"
         "    shard_rng.UniformInt(s);\n"
         "  });\n"
         "}\n"}},
       {}},
      {"rng-escape-serial-use-ok",
       {{"src/core/feat.h", kFeatHeader},
        {"src/core/feat.cc",
         "void Feat::Collect() {\n"
         "  int episodes = rng_.UniformInt(8);\n"
         "  (void)episodes;\n"
         "}\n"}},
       {}},
      {"rng-escape-unannotated-member-ok",
       {{"src/rl/driver.h",
         "class Driver {\n"
         " public:\n"
         "  void Run();\n"
         "  int Step();\n"
         " private:\n"
         "  Rng rng_;  // forked per-episode stream, not a root\n"
         "};\n"},
        {"src/rl/driver.cc",
         "void Driver::Run() {\n"
         "  ThreadPool::Global()->ParallelFor(4, 4, [&](int i) {\n"
         "    Step();\n"
         "  });\n"
         "}\n"
         "int Driver::Step() { return rng_.UniformInt(2); }\n"}},
       {}},
      {"rng-escape-pragma",
       {{"src/core/feat.h", kFeatHeader},
        {"src/core/feat.cc",
         "void Feat::Collect() {\n"
         "  ThreadPool::Global()->ParallelFor(4, 4, [&](int s) {\n"
         "    // lint: allow(rng-escape): seeding probe, single worker only\n"
         "    rng_.UniformInt(s);\n"
         "  });\n"
         "}\n"}},
       {}},
      // --- borrow-across-mutation ------------------------------------------
      // The acceptance fixture: a borrow window that reaches AddTrajectory —
      // the static form of the PF_DCHECK that a deleted runtime check would
      // no longer catch.
      {"borrow-reaches-mutation",
       {{"src/rl/learner.cc",
         "void Train(ReplayBuffer& buffer) {\n"
         "  ReplayBuffer::ReadGuard guard(buffer);\n"
         "  Refill(buffer);\n"
         "}\n"
         "void Refill(ReplayBuffer& buffer) {\n"
         "  buffer.AddTrajectory(1);\n"
         "}\n"}},
       {"borrow-across-mutation"}},
      {"borrow-direct-mutation",
       {{"src/rl/learner.cc",
         "void Train(ReplayBuffer& buffer) {\n"
         "  ReplayBuffer::ReadGuard guard(buffer);\n"
         "  buffer.AddTrajectory(1);\n"
         "}\n"}},
       {"borrow-across-mutation"}},
      {"borrow-scope-ended-ok",
       {{"src/rl/learner.cc",
         "void Train(ReplayBuffer& buffer) {\n"
         "  {\n"
         "    ReplayBuffer::ReadGuard guard(buffer);\n"
         "    Materialize(buffer);\n"
         "  }\n"
         "  Refill(buffer);\n"
         "}\n"
         "void Materialize(ReplayBuffer& buffer) {}\n"
         "void Refill(ReplayBuffer& buffer) {\n"
         "  buffer.AddTrajectory(1);\n"
         "}\n"}},
       {}},
      {"borrow-cleared-ok",
       {{"src/rl/learner.cc",
         "void Train(ReplayBuffer& buffer) {\n"
         "  std::vector<ReplayBuffer::ReadGuard> guards;\n"
         "  guards.emplace_back(buffer);\n"
         "  guards.clear();\n"
         "  buffer.AddTrajectory(1);\n"
         "}\n"}},
       {}},
      // Eviction is a mutation site too: EvictToBudget removes trajectories
      // outside any insertion, so a borrow window reaching it is the same
      // use-after-compaction hazard as one reaching AddTrajectory.
      {"borrow-reaches-eviction",
       {{"src/rl/learner.cc",
         "void Train(ReplayBuffer& buffer) {\n"
         "  ReplayBuffer::ReadGuard guard(buffer);\n"
         "  Shrink(buffer);\n"
         "}\n"
         "void Shrink(ReplayBuffer& buffer) {\n"
         "  buffer.EvictToBudget();\n"
         "}\n"}},
       {"borrow-across-mutation"}},
      {"eviction-outside-borrow-ok",
       {{"src/rl/learner.cc",
         "void Train(ReplayBuffer& buffer) {\n"
         "  {\n"
         "    ReplayBuffer::ReadGuard guard(buffer);\n"
         "    Materialize(buffer);\n"
         "  }\n"
         "  buffer.EvictToBudget();\n"
         "}\n"
         "void Materialize(ReplayBuffer& buffer) {}\n"}},
       {}},
      {"borrow-pragma",
       {{"src/rl/learner.cc",
         "void Train(ReplayBuffer& buffer) {\n"
         "  ReplayBuffer::ReadGuard guard(buffer);\n"
         "  // lint: allow(borrow-across-mutation): buffer is a shard-local\n"
         "  buffer.AddTrajectory(1);\n"
         "}\n"}},
       {}},
      // --- hot-path-alloc --------------------------------------------------
      {"hot-path-alloc-through-helper",
       {{"src/rl/driver.cc",
         "// analyze: hot-path-root\n"
         "void Driver::Step() { WriteObs(); }\n"
         "void WriteObs() {\n"
         "  obs.push_back(1.0f);\n"
         "}\n"}},
       {"hot-path-alloc"}},
      {"hot-path-alloc-new-and-make-unique",
       {{"src/rl/driver.cc",
         "// analyze: hot-path-root\n"
         "void Driver::Step() {\n"
         "  float* p = new float[8];\n"
         "  auto q = std::make_unique<int>(3);\n"
         "}\n"}},
       {"hot-path-alloc", "hot-path-alloc"}},
      {"hot-path-alloc-tensor-tu-exempt",
       {{"src/rl/driver.cc",
         "// analyze: hot-path-root\n"
         "void Driver::Step() { MatMul(); }\n"},
        {"src/tensor/matrix.cc",
         "void MatMul() { scratch.resize(64); }\n"}},
       {}},
      {"hot-path-alloc-unreachable-ok",
       {{"src/rl/driver.cc",
         "// analyze: hot-path-root\n"
         "void Driver::Step() { WriteObs(); }\n"
         "void WriteObs() { obs[0] = 1.0f; }\n"
         "void Reset() { obs.resize(64); }\n"}},
       {}},
      {"hot-path-alloc-pragma",
       {{"src/rl/driver.cc",
         "// analyze: hot-path-root\n"
         "void Driver::Step() {\n"
         "  // lint: allow(hot-path-alloc): one-time warmup before the loop\n"
         "  cache.reserve(64);\n"
         "}\n"}},
       {}},
      // --- pool-reentrancy -------------------------------------------------
      {"pool-reentrancy-nested",
       {{"src/core/feat.cc",
         "void Outer() {\n"
         "  ThreadPool::Global()->ParallelFor(4, 4, [&](int s) {\n"
         "    Inner(s);\n"
         "  });\n"
         "}\n"
         "void Inner(int s) {\n"
         "  ThreadPool::Global()->ParallelFor(8, 8, [&](int j) {\n"
         "    Work(j);\n"
         "  });\n"
         "}\n"}},
       {"pool-reentrancy"}},
      {"pool-reentrancy-blessed-fanout",
       {{"src/core/feat.cc",
         "void Outer() {\n"
         "  ThreadPool::Global()->ParallelFor(4, 4, [&](int s) {\n"
         "    Inner(s);\n"
         "  });\n"
         "}\n"
         "void Inner(int s) {\n"
         "  // lint: allow(pool-reentrancy): shard fan-out degrades inline\n"
         "  ThreadPool::Global()->ParallelFor(8, 8, [&](int j) {\n"
         "    Work(j);\n"
         "  });\n"
         "}\n"}},
       {}},
      {"pool-reentrancy-top-level-ok",
       {{"src/core/feat.cc",
         "void Outer() {\n"
         "  ThreadPool::Global()->ParallelFor(4, 4, [&](int s) {\n"
         "    Work(s);\n"
         "  });\n"
         "  ThreadPool::Global()->ParallelFor(4, 4, [&](int s) {\n"
         "    Work(s);\n"
         "  });\n"
         "}\n"}},
       {}},
      {"pool-reentrancy-pool-tu-exempt",
       {{"src/common/thread_pool.cc",
         "void ThreadPool::ParallelFor(int n, int k, Fn fn) {\n"
         "  Submit([&] { Drain(); });\n"
         "}\n"
         "void Drain() {\n"
         "  ThreadPool::Global()->Submit([&] { Work(); });\n"
         "}\n"}},
       {}},
  };

  int failures = 0;
  for (const SelfCase& c : cases) {
    Program program;
    for (const SelfFile& f : c.files) {
      IndexFile(f.path, f.path, Lex(f.path, f.source), &program);
    }
    FinalizeProgram(&program);
    std::vector<std::string> got;
    for (const Finding& f : RunAnalyzeRules(program)) got.push_back(f.rule);
    std::sort(got.begin(), got.end());
    std::vector<std::string> want = c.expected_rules;
    std::sort(want.begin(), want.end());
    if (got != want) {
      ++failures;
      std::cout << "FAIL " << c.name << ": expected {";
      for (const std::string& r : want) std::cout << r << " ";
      std::cout << "} got {";
      for (const std::string& r : got) std::cout << r << " ";
      std::cout << "}\n";
    } else {
      std::cout << "ok   " << c.name << "\n";
    }
  }
  std::cout << (failures == 0 ? "self-test passed (" : "self-test FAILED (")
            << cases.size() - failures << "/" << cases.size() << " cases)\n";
  return failures == 0 ? 0 : 1;
}

int Run(int argc, char** argv) {
  std::string root = ".";
  std::string format = "human";
  std::vector<std::string> targets;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (arg == "--list-rules") {
      std::cout << "rng-escape\nborrow-across-mutation\nhot-path-alloc\n"
                   "pool-reentrancy\n";
      return 0;
    }
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "human" && format != "machine" && format != "sarif") {
        std::cerr << "pafeat-analyze: unknown format '" << format << "'\n";
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: pafeat-analyze [--root DIR] "
                   "[--format=human|machine|sarif] [--list-rules] "
                   "[--self-test] [DIR_OR_FILE...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "pafeat-analyze: unknown flag '" << arg << "'\n";
      return 2;
    } else {
      targets.push_back(arg);
    }
  }
  // The semantic pass is whole-program: default to src/ (tests exercise the
  // contracts dynamically and deliberately poke at internals).
  if (targets.empty()) targets = {"src"};

  std::vector<fs::path> files;
  for (const std::string& t : targets) {
    fs::path p = fs::path(t);
    if (p.is_relative()) p = fs::path(root) / p;
    if (!fs::exists(p)) {
      std::cerr << "pafeat-analyze: no such file or directory: " << p << "\n";
      return 2;
    }
    CollectFiles(p, &files);
  }
  return AnalyzeFiles(files, format);
}

}  // namespace
}  // namespace pafeat_lint

int main(int argc, char** argv) { return pafeat_lint::Run(argc, argv); }
