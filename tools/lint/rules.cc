#include "rules.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>

#include "lexer.h"

namespace pafeat_lint {
namespace {

// ---------------------------------------------------------------------------
// Rule ids. These are the repo's determinism/ownership contract, spelled out
// in DESIGN.md "Determinism contract & correctness tooling".
constexpr char kRandomness[] = "randomness";
constexpr char kRawThread[] = "raw-thread";
constexpr char kUnorderedIter[] = "unordered-iter";
constexpr char kRawAlloc[] = "raw-alloc";
constexpr char kIncludeGuard[] = "include-guard";
constexpr char kIntrinsics[] = "intrinsics-only-in-kernel-tus";
constexpr char kKernelIncludes[] = "kernel-tu-includes";
constexpr char kLintPragma[] = "lint-pragma";

constexpr char kRandomnessHint[] =
    "use pafeat::Rng (src/common/rng.h): every stochastic component takes an "
    "explicitly seeded Rng so runs replay bit-identically";
constexpr char kRawThreadHint[] =
    "route parallelism through ThreadPool::Global()->ParallelFor "
    "(src/common/thread_pool.h) so the thread-count determinism contract "
    "holds; deliberate uses need // lint: allow(raw-thread): <why>";
constexpr char kUnorderedIterHint[] =
    "unordered container iteration order is not deterministic; iterate a "
    "sorted copy of the keys, or annotate the line with "
    "// lint: allow(unordered-iter): <why order cannot reach results>";
constexpr char kRawAllocHint[] =
    "use std::vector / std::make_unique, Matrix (src/tensor/), or "
    "InferenceArena scratch (src/nn/workspace.h) so ASan/checked builds see "
    "every buffer";
constexpr char kIntrinsicsHint[] =
    "SIMD intrinsics live only in the per-capability kernel TUs "
    "(src/tensor/kernels_*.cc) selected by the SimdCapability dispatch "
    "(src/tensor/kernels.cc); everything else calls the dispatched entry "
    "points so the one-time probe decides capability for the whole binary. "
    "Deliberate uses need "
    "// lint: allow(intrinsics-only-in-kernel-tus): <why>";
constexpr char kKernelIncludesHint[] =
    "an AVX2-flagged kernel TU (src/tensor/kernels_avx2*.cc) includes only "
    "<cstddef>, <cstdint>, <immintrin.h> and \"tensor/kernels_*.inl\", and a "
    "kernels_*.inl includes nothing: the linker keeps one definition of each "
    "inline function, so a header's inline compiled there with -mavx2 can "
    "become the copy generic callers run, and they would then execute AVX2 "
    "code on a host without it, which no test on an AVX2 host can see";

bool Contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsHeaderPath(const std::string& path) {
  return EndsWith(path, ".h") || EndsWith(path, ".hpp");
}

// Files allowed to own randomness / raw threads / raw allocation.
bool RandomnessAllowed(const std::string& path) {
  return Contains(path, "src/common/rng.");
}
bool RawThreadAllowed(const std::string& path) {
  return Contains(path, "src/common/thread_pool.");
}
bool RawAllocAllowed(const std::string& path) {
  return Contains(path, "src/tensor/") || Contains(path, "src/nn/workspace.");
}
// Per-capability kernel TUs (kernels_generic.cc / kernels_avx2.cc and the
// shared kernels_impl.inl) own all intrinsics.
bool IntrinsicsAllowed(const std::string& path) {
  return Contains(path, "src/tensor/kernels_");
}
// TUs built with AVX2 flags, and the bodies they include.
bool IsAvx2KernelTu(const std::string& path) {
  return Contains(path, "src/tensor/kernels_avx2") && EndsWith(path, ".cc");
}
bool IsKernelInl(const std::string& path) {
  return Contains(path, "src/tensor/kernels_") && EndsWith(path, ".inl");
}

struct Ctx {
  const FileInput* file = nullptr;
  const std::vector<Token>* toks = nullptr;
  std::vector<Finding>* findings = nullptr;
};

void Report(const Ctx& ctx, int line, const char* rule, std::string message,
            const char* hint) {
  ctx.findings->push_back(
      Finding{ctx.file->display_path, line, rule, std::move(message), hint});
}

const Token* Prev(const Ctx& ctx, std::size_t i) {
  return i > 0 ? &(*ctx.toks)[i - 1] : nullptr;
}
const Token* Next(const Ctx& ctx, std::size_t i) {
  return i + 1 < ctx.toks->size() ? &(*ctx.toks)[i + 1] : nullptr;
}

bool PrevIsMemberAccess(const Ctx& ctx, std::size_t i) {
  const Token* p = Prev(ctx, i);
  return p != nullptr && p->kind == TokKind::kPunct &&
         (p->text == "." || p->text == "->");
}

bool NextIsText(const Ctx& ctx, std::size_t i, const char* text) {
  const Token* n = Next(ctx, i);
  return n != nullptr && n->text == text;
}

// --- R1: randomness sources -----------------------------------------------

void CheckRandomness(const Ctx& ctx) {
  if (RandomnessAllowed(ctx.file->norm_path)) return;
  const std::vector<Token>& toks = *ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (PrevIsMemberAccess(ctx, i)) continue;
    const std::string& s = t.text;
    const bool call_only = s == "rand" || s == "srand" || s == "rand_r" ||
                           s == "drand48" || s == "lrand48" ||
                           s == "random_shuffle";
    const bool any_use = s == "random_device" || s == "mt19937" ||
                         s == "mt19937_64" || s == "minstd_rand" ||
                         s == "default_random_engine";
    if ((call_only && NextIsText(ctx, i, "(")) || any_use) {
      Report(ctx, t.line, kRandomness,
             "non-deterministic randomness source '" + s +
                 "' outside src/common/rng.*",
             kRandomnessHint);
    }
  }
}

// --- R2: raw threading -----------------------------------------------------

void CheckRawThread(const Ctx& ctx) {
  if (RawThreadAllowed(ctx.file->norm_path)) return;
  const std::vector<Token>& toks = *ctx.toks;
  for (std::size_t i = 2; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (!(toks[i - 1].text == "::" && toks[i - 2].text == "std")) continue;
    if (t.text == "thread" || t.text == "jthread") {
      // std::thread::id / std::thread::hardware_concurrency are queries, not
      // thread construction; only the type used bare counts.
      if (NextIsText(ctx, i, "::")) continue;
      Report(ctx, t.line, kRawThread,
             "raw std::" + t.text + " outside src/common/thread_pool.*",
             kRawThreadHint);
    } else if (t.text == "async") {
      Report(ctx, t.line, kRawThread,
             "std::async outside src/common/thread_pool.*", kRawThreadHint);
    }
  }
}

// --- R3: unordered container iteration -------------------------------------

bool IsUnorderedContainerName(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

// Skips a balanced template argument list starting at toks[i] == "<".
// Returns the index one past the matching ">". Tolerates ">>" being split
// into single-char tokens by the lexer (it is).
std::size_t SkipTemplateArgs(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const std::string& s = toks[i].text;
    if (s == "<") ++depth;
    if (s == ">" && --depth == 0) return i + 1;
    if (s == ";") break;  // malformed / not a template after all
  }
  return i;
}

// Names declared (in this file or its companion header) with an unordered
// container type, plus `using X = std::unordered_map<...>` aliases.
void CollectUnorderedNames(const std::vector<Token>& toks,
                           std::set<std::string>* names) {
  std::set<std::string> alias_types;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier) continue;
    const bool unordered = IsUnorderedContainerName(toks[i].text) ||
                           alias_types.count(toks[i].text) > 0;
    if (!unordered) continue;
    // `using Alias = [std::]unordered_map<...>;` records Alias as a
    // container type so later `Alias foo;` declarations are tracked too.
    std::size_t b = i;
    if (b >= 2 && toks[b - 1].text == "::" && toks[b - 2].text == "std") {
      b -= 2;
    }
    if (b >= 3 && toks[b - 1].text == "=" && toks[b - 3].text == "using") {
      alias_types.insert(toks[b - 2].text);
      continue;
    }
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") j = SkipTemplateArgs(toks, j);
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdentifier) {
      names->insert(toks[j].text);
    }
  }
}

void CheckUnorderedIter(const Ctx& ctx) {
  std::set<std::string> names;
  CollectUnorderedNames(*ctx.toks, &names);
  if (!ctx.file->companion_content.empty()) {
    LexResult companion =
        Lex(ctx.file->norm_path, ctx.file->companion_content);
    CollectUnorderedNames(companion.tokens, &names);
  }
  if (names.empty()) return;

  const std::vector<Token>& toks = *ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Range-for whose range expression mentions an unordered container.
    if (toks[i].text == "for" && NextIsText(ctx, i, "(")) {
      int depth = 0;
      bool seen_colon = false;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        const std::string& s = toks[j].text;
        if (s == "(") ++depth;
        if (s == ")" && --depth == 0) break;
        if (s == ";") break;  // classic for
        if (depth == 1 && s == ":") {
          seen_colon = true;
          continue;
        }
        if (seen_colon && toks[j].kind == TokKind::kIdentifier &&
            names.count(s) > 0) {
          Report(ctx, toks[i].line, kUnorderedIter,
                 "range-for over unordered container '" + s + "'",
                 kUnorderedIterHint);
          break;
        }
      }
    }
    // Iterator loops: cache_.begin() / it != cache_.end() etc.
    if (toks[i].kind == TokKind::kIdentifier && names.count(toks[i].text) &&
        i + 2 < toks.size() &&
        (toks[i + 1].text == "." || toks[i + 1].text == "->")) {
      const std::string& m = toks[i + 2].text;
      if (m == "begin" || m == "cbegin" || m == "rbegin") {
        Report(ctx, toks[i].line, kUnorderedIter,
               "iterator walk over unordered container '" + toks[i].text + "'",
               kUnorderedIterHint);
      }
    }
  }
}

// --- R4: raw allocation ----------------------------------------------------

void CheckRawAlloc(const Ctx& ctx) {
  if (RawAllocAllowed(ctx.file->norm_path)) return;
  const std::vector<Token>& toks = *ctx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (PrevIsMemberAccess(ctx, i)) continue;
    const std::string& s = t.text;
    if ((s == "malloc" || s == "calloc" || s == "realloc" ||
         s == "aligned_alloc") &&
        NextIsText(ctx, i, "(")) {
      Report(ctx, t.line, kRawAlloc,
             "raw " + s + "() outside src/tensor/ and src/nn/workspace.*",
             kRawAllocHint);
    }
    if (s == "new") {
      // Array new: a '[' before the initializer/end of the new-expression.
      for (std::size_t j = i + 1; j < toks.size() && j < i + 24; ++j) {
        const std::string& nx = toks[j].text;
        if (nx == "(" || nx == ";" || nx == "{" || nx == "," || nx == ")" ||
            nx == "=") {
          break;
        }
        if (nx == "[") {
          Report(ctx, t.line, kRawAlloc,
                 "raw array new[] outside src/tensor/ and src/nn/workspace.*",
                 kRawAllocHint);
          break;
        }
      }
    }
  }
}

// --- R5: SIMD intrinsics confined to kernel TUs ----------------------------

// Vector intrinsic calls (_mm_* / _mm256_* / _mm512_*) and register types
// (__m128* / __m256* / __m512* / __mmask*). Matching on the identifier prefix
// keeps the rule ISA-table-free; plain names like `_map` do not collide with
// the reserved `_mm` / `__m<width>` prefixes.
bool IsSimdIntrinsicName(const std::string& s) {
  for (const char* prefix : {"_mm_", "_mm256_", "_mm512_", "__m128", "__m256",
                             "__m512", "__mmask"}) {
    if (s.compare(0, std::string::traits_type::length(prefix), prefix) == 0) {
      return true;
    }
  }
  return false;
}

void CheckIntrinsics(const Ctx& ctx) {
  if (IntrinsicsAllowed(ctx.file->norm_path)) return;
  const std::vector<Token>& toks = *ctx.toks;
  int last_line = -1;  // one finding per line — a vector expression uses many
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (!IsSimdIntrinsicName(t.text)) continue;
    if (t.line == last_line) continue;
    last_line = t.line;
    Report(ctx, t.line, kIntrinsics,
           "SIMD intrinsic '" + t.text + "' outside src/tensor/kernels_*.cc",
           kIntrinsicsHint);
  }
}

// --- R6: includes of the AVX2-flagged kernel TUs ---------------------------

// The target of an #include directive as written (<x> or "x"), or empty when
// the directive is not an include.
std::string IncludeTarget(const std::string& directive) {
  std::size_t pos = directive.find('#');
  if (pos == std::string::npos) return "";
  pos = directive.find_first_not_of(" \t", pos + 1);
  if (pos == std::string::npos || directive.compare(pos, 7, "include") != 0) {
    return "";
  }
  pos = directive.find_first_not_of(" \t", pos + 7);
  if (pos == std::string::npos) return "";
  const char close = directive[pos] == '<' ? '>' : '"';
  const std::size_t end = directive.find(close, pos + 1);
  return directive.substr(
      pos, end == std::string::npos ? std::string::npos : end - pos + 1);
}

bool AllowedInAvx2KernelTu(const std::string& target) {
  if (target == "<cstddef>" || target == "<cstdint>" ||
      target == "<immintrin.h>") {
    return true;
  }
  const std::string prefix = "\"tensor/kernels_";
  const std::string suffix = ".inl\"";
  return target.size() > prefix.size() + suffix.size() &&
         target.compare(0, prefix.size(), prefix) == 0 &&
         EndsWith(target, suffix);
}

void CheckKernelIncludes(const Ctx& ctx) {
  const std::string& path = ctx.file->norm_path;
  const bool avx2_tu = IsAvx2KernelTu(path);
  if (!avx2_tu && !IsKernelInl(path)) return;
  for (const Token& t : *ctx.toks) {
    if (t.kind != TokKind::kPpDirective) continue;
    const std::string target = IncludeTarget(t.text);
    if (target.empty()) continue;
    if (avx2_tu && AllowedInAvx2KernelTu(target)) continue;
    Report(ctx, t.line, kKernelIncludes,
           "#include " + target +
               (avx2_tu ? " in an AVX2-flagged kernel TU"
                        : " in a kernel body an AVX2-flagged TU includes"),
           kKernelIncludesHint);
  }
}

// --- R7: include guards (the compile-alone half runs in CMake) -------------

std::string ExpectedGuard(const std::string& norm_path) {
  // src/common/rng.h -> PAFEAT_COMMON_RNG_H_ ; other top-level dirs keep
  // their prefix (tools/lint/lexer.h -> PAFEAT_TOOLS_LINT_LEXER_H_).
  std::string rel = norm_path;
  for (const char* marker : {"src/", "tests/", "tools/", "bench/"}) {
    const std::size_t pos = rel.rfind(marker);
    if (pos != std::string::npos) {
      rel = rel.substr(pos);
      if (rel.rfind("src/", 0) == 0) rel = rel.substr(4);
      break;
    }
  }
  std::string guard = "PAFEAT_";
  for (char c : rel) {
    guard.push_back(std::isalnum(static_cast<unsigned char>(c))
                        ? static_cast<char>(
                              std::toupper(static_cast<unsigned char>(c)))
                        : '_');
  }
  guard.push_back('_');
  return guard;
}

// Splits a directive token ("#ifndef X") into words.
std::vector<std::string> DirectiveWords(const std::string& text) {
  std::vector<std::string> words;
  std::istringstream in(text);
  std::string word;
  while (in >> word) {
    if (!words.empty() || word != "#") {
      if (word[0] == '#' && words.empty()) word = word.substr(1);
      if (!word.empty()) words.push_back(word);
    }
  }
  return words;
}

void CheckIncludeGuard(const Ctx& ctx) {
  if (!IsHeaderPath(ctx.file->norm_path)) return;
  const std::string guard = ExpectedGuard(ctx.file->norm_path);
  const std::vector<Token>& toks = *ctx.toks;
  std::vector<const Token*> pp;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kPpDirective) pp.push_back(&t);
  }
  const char* problem = nullptr;
  int line = 1;
  if (pp.size() < 2) {
    problem = "missing include guard";
  } else {
    const std::vector<std::string> first = DirectiveWords(pp[0]->text);
    const std::vector<std::string> second = DirectiveWords(pp[1]->text);
    line = pp[0]->line;
    if (first.size() < 2 || first[0] != "ifndef" || second.size() < 2 ||
        second[0] != "define" || first[1] != second[1]) {
      problem = "header does not start with an #ifndef/#define include guard";
    } else if (first[1] != guard) {
      problem = "include guard does not match the path-derived name";
    }
  }
  if (problem != nullptr) {
    Report(ctx, line, kIncludeGuard, problem,
           ("guard headers with #ifndef " + guard + " / #define " + guard +
            " ... #endif so the per-header self-containment TU check can "
            "include them in any order")
               .c_str());
  }
}

// ---------------------------------------------------------------------------

}  // namespace

const std::vector<std::string>& KnownRules() {
  // The last four ids belong to the semantic pass (pafeat-analyze); they are
  // known here so their `lint: allow` pragmas pass pragma hygiene when the
  // token stage lints a file that carries analyzer suppressions.
  static const std::vector<std::string> kRules = {
      kRandomness,     kRawThread,      kUnorderedIter,
      kRawAlloc,       kIntrinsics,     kKernelIncludes,
      kIncludeGuard,   kLintPragma,     "rng-escape",
      "borrow-across-mutation", "hot-path-alloc", "pool-reentrancy"};
  return kRules;
}

std::vector<Finding> RunRules(const FileInput& file) {
  const LexResult lexed = Lex(file.norm_path, file.content);
  std::vector<Finding> findings;
  Ctx ctx{&file, &lexed.tokens, &findings};
  CheckRandomness(ctx);
  CheckRawThread(ctx);
  CheckUnorderedIter(ctx);
  CheckRawAlloc(ctx);
  CheckIntrinsics(ctx);
  CheckKernelIncludes(ctx);
  CheckIncludeGuard(ctx);

  // Apply pragmas: a pragma suppresses matching findings on its own line,
  // or on the following line when the comment stands alone.
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    bool suppressed = false;
    for (const Pragma& p : lexed.pragmas) {
      if (p.rule != f.rule) continue;
      if (p.line == f.line || (p.standalone && p.line + 1 == f.line)) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(std::move(f));
  }

  // Pragma hygiene: unknown rule names and missing justifications are
  // themselves violations — an allow() without a recorded reason defeats
  // the point of the allowlist.
  for (const Pragma& p : lexed.pragmas) {
    const std::vector<std::string>& known = KnownRules();
    if (std::find(known.begin(), known.end(), p.rule) == known.end()) {
      kept.push_back(Finding{
          file.display_path, p.line, kLintPragma,
          "pragma names unknown rule '" + p.rule + "'",
          "known rules: randomness, raw-thread, unordered-iter, raw-alloc, "
          "intrinsics-only-in-kernel-tus, kernel-tu-includes, include-guard, "
          "rng-escape, borrow-across-mutation, hot-path-alloc, "
          "pool-reentrancy"});
    } else if (p.justification.empty()) {
      kept.push_back(Finding{
          file.display_path, p.line, kLintPragma,
          "pragma for '" + p.rule + "' has no justification",
          "write // lint: allow(" + p.rule + "): <why this is safe>"});
    }
  }

  std::sort(kept.begin(), kept.end(),
            [](const Finding& a, const Finding& b) { return a.line < b.line; });
  return kept;
}

}  // namespace pafeat_lint
