#include "tensor/kernels.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace pafeat {
namespace kernels {

// Single-threaded cores instantiated from kernels_impl.inl (plus the
// serving-plane cores defined directly in the per-capability TUs).
namespace generic {
void GemmNN(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc);
void GemmTN(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc);
void GemmNT(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc);
void GemmGatherNN(int m, int n, const float* a, int lda, const int* cols,
                  int ncols, const float* b, int ldb, float* c, int ldc);
void RowwiseCarryInit(int n, int k_end, const float* a, const float* b,
                      int ldb, float* lanes);
void RowwiseCarryFinish(int n, int p, int k_begin, const float* a,
                        const float* b, int ldb, const float* lanes,
                        float* c);
}  // namespace generic

#ifdef PAFEAT_HAVE_AVX2_TU
namespace avx2 {
void GemmNN(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc);
void GemmTN(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc);
void GemmNT(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc);
void GemmGatherNN(int m, int n, const float* a, int lda, const int* cols,
                  int ncols, const float* b, int ldb, float* c, int ldc);
// Intrinsics-based serving cores (defined in kernels_avx2.cc, not the
// .inl): per-row bits independent of the batch size, see GemmNTRowwise.
void GemmNTRowwise(int m, int n, int p, const float* a, int lda,
                   const float* b, int ldb, float* c, int ldc);
void RowwiseCarryInit(int n, int k_end, const float* a, const float* b,
                      int ldb, float* lanes);
void RowwiseCarryFinish(int n, int p, int k_begin, const float* a,
                        const float* b, int ldb, const float* lanes,
                        float* c);
}  // namespace avx2
#endif

namespace {

using GemmFn = void (*)(int, int, int, const float*, int, const float*, int,
                        float*, int);
using GatherFn = void (*)(int, int, const float*, int, const int*, int,
                          const float*, int, float*, int);
using CarryInitFn = void (*)(int, int, const float*, const float*, int,
                             float*);
using CarryFinishFn = void (*)(int, int, int, const float*, const float*, int,
                               const float*, float*);

struct Dispatch {
  GemmFn nn;
  GemmFn tn;
  GemmFn nt;
  // Row-wise NT core whose per-row bits are independent of m (the batched
  // inference plane's contract). The generic instantiation's NT dot core
  // already has that property (plain 1x1 tile, no cross-row state); the
  // AVX2 TU supplies a dedicated interleaved intrinsics core because a
  // portable interleave would let the compiler contract rows differently.
  GemmFn nt_rowwise;
  GatherFn gather;
  // The greedy scan's cut of nt_rowwise (kernels.h).
  CarryInitFn carry_init;
  CarryFinishFn carry_finish;
  SimdCapability capability = SimdCapability::kGeneric;
};

// Highest level both compiled in and supported by this CPU.
SimdCapability ProbeBestCapability() {
#ifdef PAFEAT_HAVE_AVX2_TU
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return SimdCapability::kAvx2;
  }
#endif
  return SimdCapability::kGeneric;
}

Dispatch MakeDispatch(SimdCapability level) {
  Dispatch dispatch{generic::GemmNN,           generic::GemmTN,
                    generic::GemmNT,           generic::GemmNT,
                    generic::GemmGatherNN,     generic::RowwiseCarryInit,
                    generic::RowwiseCarryFinish, SimdCapability::kGeneric};
#ifdef PAFEAT_HAVE_AVX2_TU
  if (level >= SimdCapability::kAvx2) {
    dispatch = Dispatch{avx2::GemmNN,           avx2::GemmTN,
                        avx2::GemmNT,           avx2::GemmNTRowwise,
                        avx2::GemmGatherNN,     avx2::RowwiseCarryInit,
                        avx2::RowwiseCarryFinish, SimdCapability::kAvx2};
  }
#endif
  return dispatch;
}

const Dispatch& Impl() {
  static const Dispatch dispatch = []() {
    SimdCapability level = ProbeBestCapability();
    // PAFEAT_SIMD clamps the probed level down (never up): the forced-
    // downgrade test matrix runs one binary at every level the host has.
    if (const char* forced = std::getenv("PAFEAT_SIMD")) {
      SimdCapability requested;
      if (!ParseSimdCapability(forced, &requested)) {
        PF_LOG(Warning) << "PAFEAT_SIMD=" << forced
                        << " is not a capability name (generic|avx2); keeping "
                        << SimdCapabilityName(level);
      } else if (requested < level) {
        level = requested;
      }
    }
    return MakeDispatch(level);
  }();
  return dispatch;
}

// Row panels handed to the pool start at multiples of the register tile, so
// each row runs through exactly the code path it takes single-threaded —
// part of the bit-identical-across-thread-counts contract.
constexpr int kPanelAlign = 4;
// Below ~2 MFLOP (2*m*n*p) the pool wake costs more than the split saves.
constexpr long long kMinFlopsPerPanel = 2'000'000;

// Checked-build aliasing guard (PF_DCHECK): the kernels *accumulate* into C
// while streaming A and B, so any overlap between C and an input corrupts
// the product silently — exactly the class of bug ASan cannot see because
// every access stays in bounds. Spans are conservative: `rows` full
// leading-dimension rows per operand.
bool DisjointFromC(const float* c, long long c_rows, int ldc, const float* x,
                   long long x_rows, int ldx) {
  const std::less_equal<const float*> le;  // total order even across objects
  return le(c + c_rows * ldc, x) || le(x + x_rows * ldx, c);
}

int NumPanels(int m, long long flops) {
  if (m < 2 * kPanelAlign || flops < 2 * kMinFlopsPerPanel) return 1;
  ThreadPool* pool = ThreadPool::Global();
  const long long executors = pool->num_workers() + 1;
  if (executors <= 1) return 1;
  const long long by_work = flops / kMinFlopsPerPanel;
  const long long by_rows = (m + kPanelAlign - 1) / kPanelAlign;
  return static_cast<int>(std::min({executors, by_work, by_rows}));
}

// Splits the output rows [0, m) into aligned panels and runs `core` on each
// via the shared pool. a_row_stride is what one output row advances A by:
// lda for GemmNN/GemmNT (A rows are C rows) and 1 for GemmTN (A *columns*
// are C rows).
void RunRowPanels(GemmFn core, int panels, int m, int n, int p,
                  const float* a, int lda, std::size_t a_row_stride,
                  const float* b, int ldb, float* c, int ldc) {
  const int rows_per =
      ((m + panels - 1) / panels + kPanelAlign - 1) / kPanelAlign *
      kPanelAlign;
  // When the caller is already on a pool worker this degrades to an inline
  // (serial) GEMM — correct either way, and the panel split is deterministic.
  // lint: allow(pool-reentrancy): panel fan-out degrades inline under nesting
  ThreadPool::Global()->ParallelFor(panels, panels, [&](int index) {
    const int i0 = index * rows_per;
    const int rows = std::min(rows_per, m - i0);
    if (rows <= 0) return;
    core(rows, n, p, a + i0 * a_row_stride, lda, b, ldb,
         c + static_cast<std::size_t>(i0) * ldc, ldc);
  });
}

}  // namespace

void GemmNN(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc) {
  if (m <= 0 || n <= 0 || p <= 0) return;
  PF_DCHECK_GE(lda, p);
  PF_DCHECK_GE(ldb, n);
  PF_DCHECK_GE(ldc, n);
  PF_DCHECK(DisjointFromC(c, m, ldc, a, m, lda)) << "GemmNN: C aliases A";
  PF_DCHECK(DisjointFromC(c, m, ldc, b, p, ldb)) << "GemmNN: C aliases B";
  const GemmFn core = Impl().nn;
  const int panels = NumPanels(m, 2LL * m * n * p);
  if (panels <= 1) {
    core(m, n, p, a, lda, b, ldb, c, ldc);
    return;
  }
  RunRowPanels(core, panels, m, n, p, a, lda, static_cast<std::size_t>(lda),
               b, ldb, c, ldc);
}

void GemmTN(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc) {
  if (m <= 0 || n <= 0 || p <= 0) return;
  PF_DCHECK_GE(lda, m);  // A is p x m: its rows are C's columns
  PF_DCHECK_GE(ldb, n);
  PF_DCHECK_GE(ldc, n);
  PF_DCHECK(DisjointFromC(c, m, ldc, a, p, lda)) << "GemmTN: C aliases A";
  PF_DCHECK(DisjointFromC(c, m, ldc, b, p, ldb)) << "GemmTN: C aliases B";
  const GemmFn core = Impl().tn;
  const int panels = NumPanels(m, 2LL * m * n * p);
  if (panels <= 1) {
    core(m, n, p, a, lda, b, ldb, c, ldc);
    return;
  }
  RunRowPanels(core, panels, m, n, p, a, lda, /*a_row_stride=*/1, b, ldb, c,
               ldc);
}

// Below this many output rows the one-off O(n*p) transpose of B cannot
// amortize against the 2*m*n*p flops, so the dot-product core wins. The
// threshold is evaluated on the FULL m before any pool split — strategy (and
// therefore summation order) must never depend on how rows were partitioned.
constexpr int kNtTransposeMinRows = 8;

namespace {

// GemmNT packs B^T a k block at a time: kNtPackDepth rows of B^T (columns of
// B) per pass, a multiple of the NN core's 4-wide k groups, so each element
// of C meets the same groups in the same order as in one NN call over the
// whole transpose.
constexpr int kNtPackDepth = 256;
static_assert(kNtPackDepth % 4 == 0);
// Depth of the slices the packing walks: kPackSlice rows of a 4-column
// group land in kPackSlice x n floats of the panel that stay in L1 while the
// next groups fill them in.
constexpr int kPackSlice = 64;

// Writes rows [0, kn) of B^T, for the n x kn block of B at `b`, as the kn x n
// panel `bt`: four B rows at a time, so each write covers 16 contiguous
// bytes, and a scalar pass for the last n % 4 rows.
void PackTransposed(int n, int kn, const float* __restrict b, int ldb,
                    float* __restrict bt) {
  for (int t0 = 0; t0 < kn; t0 += kPackSlice) {
    const int t1 = std::min(kn, t0 + kPackSlice);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* __restrict s0 = b + static_cast<std::size_t>(j) * ldb;
      const float* __restrict s1 = s0 + ldb;
      const float* __restrict s2 = s1 + ldb;
      const float* __restrict s3 = s2 + ldb;
      for (int t = t0; t < t1; ++t) {
        float* __restrict d = bt + static_cast<std::size_t>(t) * n + j;
        d[0] = s0[t];
        d[1] = s1[t];
        d[2] = s2[t];
        d[3] = s3[t];
      }
    }
    for (; j < n; ++j) {
      const float* __restrict s = b + static_cast<std::size_t>(j) * ldb;
      for (int t = t0; t < t1; ++t) {
        bt[static_cast<std::size_t>(t) * n + j] = s[t];
      }
    }
  }
}

// C += A * B^T for rows of C, through the NN core: each k block of B^T is
// packed into storage the executing thread keeps (it grows to the largest
// panel seen and is reused, so no call allocates once warm) and multiplied
// while it is cache-hot. Each panel task of a pool split packs for itself,
// so no thread reads another's scratch, and nothing on this thread can
// reenter here before the NN core returns. Packing is pure data movement:
// the core reads the values a full transpose would hold, in the same order.
void GemmNTPacked(int m, int n, int p, const float* a, int lda,
                  const float* b, int ldb, float* c, int ldc) {
  static thread_local std::vector<float> panel;
  const std::size_t size =
      static_cast<std::size_t>(std::min(p, kNtPackDepth)) * n;
  if (panel.size() < size) panel.resize(size);
  const GemmFn core = Impl().nn;
  for (int k0 = 0; k0 < p; k0 += kNtPackDepth) {
    const int kn = std::min(kNtPackDepth, p - k0);
    PackTransposed(n, kn, b + k0, ldb, panel.data());
    core(m, n, kn, a + k0, lda, panel.data(), n, c, ldc);
  }
}

}  // namespace

void GemmNT(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc) {
  if (m <= 0 || n <= 0 || p <= 0) return;
  PF_DCHECK_GE(lda, p);
  PF_DCHECK_GE(ldb, p);  // B is n x p, transposed logically
  PF_DCHECK_GE(ldc, n);
  PF_DCHECK(DisjointFromC(c, m, ldc, a, m, lda)) << "GemmNT: C aliases A";
  PF_DCHECK(DisjointFromC(c, m, ldc, b, n, ldb)) << "GemmNT: C aliases B";
  if (m < kNtTransposeMinRows) {
    // Small products use the row-wise core — the same function GemmNTRowwise
    // runs — so a single-row query through this entry point is bit-identical
    // to the corresponding row of a batched GemmNTRowwise call. The batched
    // inference plane (DESIGN.md "Batched inference plane") relies on this.
    Impl().nt_rowwise(m, n, p, a, lda, b, ldb, c, ldc);
    return;
  }
  // C += A * B^T == GemmNN(A, B^T): the NN core's row-broadcast inner loop
  // vectorizes far better than a dot-product kernel (the reduction axis
  // becomes the contiguous one), and packing B^T costs each executor one
  // pass over B.
  const int panels = NumPanels(m, 2LL * m * n * p);
  if (panels <= 1) {
    GemmNTPacked(m, n, p, a, lda, b, ldb, c, ldc);
    return;
  }
  RunRowPanels(GemmNTPacked, panels, m, n, p, a, lda,
               static_cast<std::size_t>(lda), b, ldb, c, ldc);
}

void GemmNTRowwise(int m, int n, int p, const float* a, int lda,
                   const float* b, int ldb, float* c, int ldc) {
  if (m <= 0 || n <= 0 || p <= 0) return;
  PF_DCHECK_GE(lda, p);
  PF_DCHECK_GE(ldb, p);  // B is n x p, transposed logically
  PF_DCHECK_GE(ldc, n);
  PF_DCHECK(DisjointFromC(c, m, ldc, a, m, lda))
      << "GemmNTRowwise: C aliases A";
  PF_DCHECK(DisjointFromC(c, m, ldc, b, n, ldb))
      << "GemmNTRowwise: C aliases B";
  const GemmFn core = Impl().nt_rowwise;
  const int panels = NumPanels(m, 2LL * m * n * p);
  if (panels <= 1) {
    core(m, n, p, a, lda, b, ldb, c, ldc);
    return;
  }
  // Safe to split at any aligned boundary: the core computes each row with
  // an m-independent operation sequence, so the panel partition cannot
  // change bits (unlike GemmNT, whose strategy switch must see the full m).
  RunRowPanels(core, panels, m, n, p, a, lda, static_cast<std::size_t>(lda),
               b, ldb, c, ldc);
}

void GemmGatherNN(int m, int n, const float* a, int lda, const int* cols,
                  int ncols, const float* b, int ldb, float* c, int ldc) {
  if (m <= 0 || n <= 0 || ncols <= 0) return;
  PF_DCHECK_GE(ldb, n);
  PF_DCHECK_GE(ldc, n);
  PF_DCHECK(DisjointFromC(c, m, ldc, a, m, lda))
      << "GemmGatherNN: C aliases A";
  // B rows are indexed by cols[i] < lda, so lda rows bound B's extent.
  PF_DCHECK(DisjointFromC(c, m, ldc, b, lda, ldb))
      << "GemmGatherNN: C aliases B";
#ifdef PAFEAT_CHECKED
  for (int i = 0; i < ncols; ++i) {
    PF_CHECK_GE(cols[i], 0);
    PF_CHECK_LT(cols[i], lda);
  }
#endif
  const GatherFn core = Impl().gather;
  const int panels = NumPanels(m, 2LL * m * n * ncols);
  if (panels <= 1) {
    core(m, n, a, lda, cols, ncols, b, ldb, c, ldc);
    return;
  }
  const int rows_per =
      ((m + panels - 1) / panels + kPanelAlign - 1) / kPanelAlign *
      kPanelAlign;
  // When the caller is already on a pool worker this degrades to an inline
  // (serial) GEMM — correct either way, and the panel split is deterministic.
  // lint: allow(pool-reentrancy): panel fan-out degrades inline under nesting
  ThreadPool::Global()->ParallelFor(panels, panels, [&](int index) {
    const int i0 = index * rows_per;
    const int rows = std::min(rows_per, m - i0);
    if (rows <= 0) return;
    core(rows, n, a + static_cast<std::size_t>(i0) * lda, lda, cols, ncols, b,
         ldb, c + static_cast<std::size_t>(i0) * ldc, ldc);
  });
}

void RowwiseCarryInit(int n, int k_end, const float* a, const float* b,
                      int ldb, float* lanes) {
  if (n <= 0) return;
  PF_DCHECK_GE(k_end, 0);
  PF_DCHECK_EQ(k_end % kRowwiseLanes, 0);
  PF_DCHECK_GE(ldb, k_end);
  Impl().carry_init(n, k_end, a, b, ldb, lanes);
}

void RowwiseCarryFinish(int n, int p, int k_begin, const float* a,
                        const float* b, int ldb, const float* lanes,
                        float* c) {
  if (n <= 0) return;
  PF_DCHECK_GE(k_begin, 0);
  PF_DCHECK_LE(k_begin, p);
  PF_DCHECK_EQ(k_begin % kRowwiseLanes, 0);
  PF_DCHECK_GE(ldb, p);
  PF_DCHECK(DisjointFromC(c, 1, n, a, 1, p))
      << "RowwiseCarryFinish: C aliases A";
  PF_DCHECK(DisjointFromC(c, 1, n, b, n, ldb))
      << "RowwiseCarryFinish: C aliases B";
  PF_DCHECK(DisjointFromC(c, 1, n, lanes, n, kRowwiseLanes))
      << "RowwiseCarryFinish: C aliases the lanes";
  Impl().carry_finish(n, p, k_begin, a, b, ldb, lanes, c);
}

SimdCapability ActiveSimdCapability() { return Impl().capability; }

bool SimdCapabilityAvailable(SimdCapability level) {
  switch (level) {
    case SimdCapability::kGeneric:
      return true;
    case SimdCapability::kAvx2:
      return ProbeBestCapability() >= SimdCapability::kAvx2;
  }
  return false;
}

const char* SimdCapabilityName(SimdCapability level) {
  switch (level) {
    case SimdCapability::kGeneric:
      return "generic";
    case SimdCapability::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ParseSimdCapability(const char* name, SimdCapability* level) {
  if (name == nullptr || level == nullptr) return false;
  for (SimdCapability candidate :
       {SimdCapability::kGeneric, SimdCapability::kAvx2}) {
    if (std::strcmp(name, SimdCapabilityName(candidate)) == 0) {
      *level = candidate;
      return true;
    }
  }
  return false;
}

}  // namespace kernels
}  // namespace pafeat
