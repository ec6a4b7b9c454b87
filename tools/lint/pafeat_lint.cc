// pafeat-lint: in-house static analysis for the PA-FEAT repo.
//
// Walks the given directories (default: src/ tests/ relative to --root) and
// enforces the repo's determinism/ownership contract over every C++ source
// file, with zero dependencies beyond the standard library:
//
//   randomness      all randomness flows through src/common/rng.*
//   raw-thread      all parallelism flows through src/common/thread_pool.*
//   unordered-iter  no iteration-order dependence on unordered containers
//   raw-alloc       no raw new[]/malloc outside the tensor/arena layers
//   intrinsics-only-in-kernel-tus
//                   SIMD intrinsics (_mm*/__m128/__m256/__m512/__mmask*)
//                   appear only in the per-capability kernel TUs
//                   (src/tensor/kernels_*.cc); everything else goes through
//                   the SimdCapability dispatch in src/tensor/kernels.cc
//   include-guard   headers carry path-derived include guards (the
//                   compile-alone half of header hygiene is the generated
//                   per-header TU target, see tools/lint/CMakeLists.txt)
//
// Deliberate exceptions are annotated in the source:
//   // lint: allow(<rule>): <justification>
// on the offending line, or standing alone on the line above it. A pragma
// without a justification (or naming an unknown rule) is itself an error.
//
// Exit status: 0 clean, 1 findings, 2 usage/IO error.
//
// Usage:
//   pafeat-lint [--root DIR] [--format=human|machine|sarif] [--list-rules]
//               [--self-test] [DIR_OR_FILE...]
//
// The cross-TU semantic stage lives in the sibling binary pafeat-analyze
// (same lexer, same pragma machinery); see pafeat_analyze.cc.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "rules.h"
#include "sarif.h"

namespace pafeat_lint {
namespace {

namespace fs = std::filesystem;

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".h" || ext == ".hpp" ||
         ext == ".inl";
}

std::string NormalizePath(const fs::path& p) {
  std::string s = p.generic_string();
  return s;
}

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// Collects every source file under `target` (or the file itself).
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

int LintFiles(const std::vector<fs::path>& files, const std::string& format) {
  std::vector<Finding> all;
  for (const fs::path& path : files) {
    FileInput input;
    input.display_path = NormalizePath(path);
    input.norm_path = NormalizePath(fs::absolute(path));
    if (!ReadFile(path, &input.content)) {
      std::cerr << "pafeat-lint: cannot read " << path << "\n";
      return 2;
    }
    // Companion header: container members declared in foo.h are tracked when
    // linting foo.cc.
    const std::string ext = path.extension().string();
    if (ext == ".cc" || ext == ".cpp") {
      fs::path header = path;
      header.replace_extension(".h");
      if (fs::exists(header)) ReadFile(header, &input.companion_content);
    }
    for (Finding& f : RunRules(input)) all.push_back(std::move(f));
  }
  if (format == "sarif") {
    std::cout << ToSarif("pafeat-lint", all);
    return all.empty() ? 0 : 1;
  }
  for (const Finding& f : all) {
    if (format == "machine") {
      std::cout << f.file << ":" << f.line << " " << f.rule << "\n";
    } else {
      std::cout << f.file << ":" << f.line << ": error: [" << f.rule << "] "
                << f.message << "\n";
      if (!f.hint.empty()) std::cout << "  hint: " << f.hint << "\n";
    }
  }
  if (format != "machine") {
    if (all.empty()) {
      std::cout << "pafeat-lint: " << files.size() << " files clean\n";
    } else {
      std::cout << "pafeat-lint: " << all.size() << " finding(s) across "
                << files.size() << " files\n";
    }
  }
  return all.empty() ? 0 : 1;
}

// --- self test -------------------------------------------------------------
// Each case is a source snippet with the rules it must (or must not) fire.
// Runs entirely in-memory; registered in ctest as pafeat_lint_selftest so a
// broken rule fails the suite even when the tree itself is clean.

struct SelfCase {
  const char* name;
  const char* path;  // pretend location (drives allowlists)
  const char* source;
  std::vector<std::string> expected_rules;  // sorted multiset
};

int SelfTest() {
  const std::vector<SelfCase> cases = {
      {"rand-call", "src/core/feat.cc", "int x = rand();\n", {"randomness"}},
      {"rand-in-comment-and-string", "src/core/feat.cc",
       "// rand() here is fine\nconst char* s = \"rand()\";\n", {}},
      {"member-rand-ok", "src/core/feat.cc", "double r = dist.rand();\n", {}},
      {"mt19937", "src/core/feat.cc", "std::mt19937 gen(42);\n",
       {"randomness"}},
      {"random-device", "src/rl/env.cc", "std::random_device rd;\n",
       {"randomness"}},
      {"rng-owner-exempt", "src/common/rng.cc", "int x = rand();\n", {}},
      {"raw-thread", "src/core/feat.cc",
       "std::thread t([] {});\nt.join();\n", {"raw-thread"}},
      {"thread-id-ok", "src/core/feat.cc",
       "std::thread::id id = std::this_thread::get_id();\n", {}},
      {"hardware-concurrency-ok", "src/core/feat.cc",
       "unsigned n = std::thread::hardware_concurrency();\n", {}},
      {"async", "src/core/feat.cc",
       "auto f = std::async(std::launch::async, [] {});\n", {"raw-thread"}},
      {"pool-owner-exempt", "src/common/thread_pool.cc",
       "std::thread t([] {});\n", {}},
      {"thread-pragma", "tests/foo_test.cc",
       "// lint: allow(raw-thread): stress test needs unmanaged threads\n"
       "std::thread t([] {});\n",
       {}},
      {"thread-pragma-no-reason", "tests/foo_test.cc",
       "std::thread t([] {});  // lint: allow(raw-thread)\n", {"lint-pragma"}},
      {"pragma-unknown-rule", "tests/foo_test.cc",
       "// lint: allow(no-such-rule): hm\nint x = 0;\n", {"lint-pragma"}},
      {"unordered-range-for", "src/core/feat.cc",
       "std::unordered_map<int, int> counts;\n"
       "int Sum() { int s = 0; for (const auto& kv : counts) s += kv.second;"
       " return s; }\n",
       {"unordered-iter"}},
      {"unordered-structured-binding", "src/core/feat.cc",
       "std::unordered_set<int> seen_;\n"
       "void F() { for (int v : seen_) { (void)v; } }\n",
       {"unordered-iter"}},
      {"unordered-iterator-loop", "src/core/feat.cc",
       "std::unordered_map<int, int> m_;\n"
       "void F() { for (auto it = m_.begin(); it != m_.end(); ++it) {} }\n",
       {"unordered-iter"}},
      {"unordered-find-ok", "src/core/feat.cc",
       "std::unordered_map<int, int> m_;\n"
       "bool Has(int k) { return m_.find(k) != m_.end(); }\n",
       {}},
      {"unordered-alias", "src/core/feat.cc",
       "using Cache = std::unordered_map<int, double>;\n"
       "Cache cache_;\n"
       "void F() { for (const auto& kv : cache_) { (void)kv; } }\n",
       {"unordered-iter"}},
      {"unordered-pragma", "src/core/feat.cc",
       "std::unordered_map<int, int> m_;\n"
       "void F() {\n"
       "  // lint: allow(unordered-iter): accumulation is commutative here\n"
       "  for (const auto& kv : m_) { (void)kv; }\n"
       "}\n",
       {}},
      {"vector-range-for-ok", "src/core/feat.cc",
       "std::vector<int> v_;\nvoid F() { for (int x : v_) { (void)x; } }\n",
       {}},
      {"raw-array-new", "src/ml/foo.cc", "float* p = new float[128];\n",
       {"raw-alloc"}},
      {"plain-new-ok", "src/ml/foo.cc", "auto* p = new Foo(1, 2);\n", {}},
      {"malloc", "src/ml/foo.cc",
       "void* p = malloc(64);\n", {"raw-alloc"}},
      {"make-unique-array-ok", "src/ml/foo.cc",
       "auto p = std::make_unique<float[]>(64);\n", {}},
      {"tensor-exempt", "src/tensor/matrix.cc",
       "float* p = new float[128];\n", {}},
      {"arena-exempt", "src/nn/workspace.cc", "float* p = new float[8];\n",
       {}},
      {"intrinsic-call-outside-kernels", "src/nn/dueling_net.cc",
       "__m256i v = _mm256_loadu_si256(p);\n",
       {"intrinsics-only-in-kernel-tus"}},
      {"intrinsic-one-finding-per-line", "src/core/feat.cc",
       "auto v = _mm512_fmadd_ps(a, b, c);\n"
       "auto w = _mm512_add_ps(v, v);\n",
       {"intrinsics-only-in-kernel-tus", "intrinsics-only-in-kernel-tus"}},
      {"intrinsic-mask-type", "src/rl/env.cc",
       "__mmask16 m = 0;\n", {"intrinsics-only-in-kernel-tus"}},
      {"intrinsic-kernel-tu-exempt", "src/tensor/kernels_avx2.cc",
       "__m256 acc = _mm256_fmadd_ps(a, b, acc);\n", {}},
      {"intrinsic-kernel-inl-exempt", "src/tensor/kernels_impl.inl",
       "__m256 acc = _mm256_setzero_ps();\n", {}},
      {"intrinsic-in-comment-ok", "src/core/feat.cc",
       "// replaced the _mm256_fmadd_ps path with the dispatch call\n"
       "int x = 0;\n",
       {}},
      {"intrinsic-lookalike-ok", "src/core/feat.cc",
       "int _map = 0; int __m = _map;\n", {}},
      {"intrinsic-pragma", "tests/foo_test.cc",
       "// lint: allow(intrinsics-only-in-kernel-tus): probing lane widths\n"
       "__m512 v = _mm512_setzero_ps();\n",
       {}},
      {"guard-ok", "src/common/rng.h",
       "#ifndef PAFEAT_COMMON_RNG_H_\n#define PAFEAT_COMMON_RNG_H_\n"
       "#endif  // PAFEAT_COMMON_RNG_H_\n",
       {}},
      {"guard-wrong-name", "src/common/rng.h",
       "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n", {"include-guard"}},
      {"guard-missing", "src/common/rng.h", "int x;\n", {"include-guard"}},
      {"guard-not-checked-for-cc", "src/common/rng.cc", "int x;\n", {}},
      // Sharded training plane (PR 6): the collector fan-out and merge code
      // shapes the contract rules must keep covering.
      {"shard-fanout-raw-thread", "src/core/feat.cc",
       "void CollectShards() {\n"
       "  std::vector<std::thread> workers;\n"
       "  for (int s = 0; s < num_shards; ++s) workers.emplace_back([] {});\n"
       "  for (auto& t : workers) t.join();\n"
       "}\n",
       {"raw-thread"}},
      {"shard-fanout-pool-ok", "src/core/feat.cc",
       "ThreadPool::Global()->ParallelFor(num_shards, executors,\n"
       "                                 [&](int s) { CollectShard(s); });\n",
       {}},
      {"shard-rng-fork-ok", "src/core/feat.cc",
       "Rng shard_root(config_.seed);\n"
       "Rng shard_rng = shard_root.Fork(iteration_index_, shard_id);\n",
       {}},
      {"shard-seed-from-mt19937", "src/core/feat.cc",
       "std::mt19937 shard_gen(shard_id);\n", {"randomness"}},
      {"shard-merge-unordered-iter", "src/core/feat.cc",
       "std::unordered_map<int, std::vector<int>> shard_plans;\n"
       "void Merge() {\n"
       "  for (const auto& kv : shard_plans) Commit(kv.second);\n"
       "}\n",
       {"unordered-iter"}},
      {"shard-merge-ordered-ok", "src/core/feat.cc",
       "std::vector<ShardPlan> shards;\n"
       "void Merge() {\n"
       "  for (const ShardPlan& shard : shards) Commit(shard);\n"
       "}\n",
       {}},
  };

  int failures = 0;
  for (const SelfCase& c : cases) {
    FileInput input;
    input.display_path = c.path;
    input.norm_path = c.path;
    input.content = c.source;
    std::vector<std::string> got;
    for (const Finding& f : RunRules(input)) got.push_back(f.rule);
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
      for (const std::string& r : KnownRules()) std::cout << r << "\n";
      return 0;
    }
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "human" && format != "machine" && format != "sarif") {
        std::cerr << "pafeat-lint: unknown format '" << format << "'\n";
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: pafeat-lint [--root DIR] "
                   "[--format=human|machine|sarif]"
                   " [--list-rules] [--self-test] [DIR_OR_FILE...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "pafeat-lint: unknown flag '" << arg << "'\n";
      return 2;
    } else {
      targets.push_back(arg);
    }
  }
  if (targets.empty()) targets = {"src", "tests"};

  std::vector<fs::path> files;
  for (const std::string& t : targets) {
    fs::path p = fs::path(t);
    if (p.is_relative()) p = fs::path(root) / p;
    if (!fs::exists(p)) {
      std::cerr << "pafeat-lint: no such file or directory: " << p << "\n";
      return 2;
    }
    CollectFiles(p, &files);
  }
  return LintFiles(files, format);
}

}  // namespace
}  // namespace pafeat_lint

int main(int argc, char** argv) { return pafeat_lint::Run(argc, argv); }
