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
// serving-tier cores defined directly in the per-capability TUs).
namespace generic {
void GemmNN(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc);
void GemmTN(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc);
void GemmNT(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc);
void GemmGatherNN(int m, int n, const float* a, int lda, const int* cols,
                  int ncols, const float* b, int ldb, float* c, int ldc);
void GemmInt8NT(int m, int n, int p, const std::int8_t* a, int lda,
                const std::int8_t* b, int ldb, std::int32_t* c, int ldc);
void QuantizeRowsInt8(int rows, int n, const float* x, int ldx,
                      std::int8_t* q, int ldq, float* scales);
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
void GemmInt8NT(int m, int n, int p, const std::int8_t* a, int lda,
                const std::int8_t* b, int ldb, std::int32_t* c, int ldc);
void QuantizeRowsInt8(int rows, int n, const float* x, int ldx,
                      std::int8_t* q, int ldq, float* scales);
}  // namespace avx2
#endif

#ifdef PAFEAT_HAVE_AVX512_TU
// The AVX-512 level only widens the serving-plane cores (row-wise NT,
// first-layer gather, int8). The blocked training kernels stay on the AVX2
// instantiation: their cache-blocked shapes gain little from 512-bit lanes,
// and reusing them keeps training bits identical between the two levels.
namespace avx512 {
void GemmNTRowwise(int m, int n, int p, const float* a, int lda,
                   const float* b, int ldb, float* c, int ldc);
void GemmGatherNN(int m, int n, const float* a, int lda, const int* cols,
                  int ncols, const float* b, int ldb, float* c, int ldc);
void GemmInt8NT(int m, int n, int p, const std::int8_t* a, int lda,
                const std::int8_t* b, int ldb, std::int32_t* c, int ldc);
void QuantizeRowsInt8(int rows, int n, const float* x, int ldx,
                      std::int8_t* q, int ldq, float* scales);
}  // namespace avx512
#endif

namespace {

using GemmFn = void (*)(int, int, int, const float*, int, const float*, int,
                        float*, int);
using GatherFn = void (*)(int, int, const float*, int, const int*, int,
                          const float*, int, float*, int);
using Int8Fn = void (*)(int, int, int, const std::int8_t*, int,
                        const std::int8_t*, int, std::int32_t*, int);
using QuantFn = void (*)(int, int, const float*, int, std::int8_t*, int,
                         float*);

struct Dispatch {
  GemmFn nn;
  GemmFn tn;
  GemmFn nt;
  // Row-wise NT core whose per-row bits are independent of m (the batched
  // inference plane's contract). The generic instantiation's NT dot core
  // already has that property (plain 1x1 tile, no cross-row state); the
  // AVX2/AVX-512 TUs supply dedicated interleaved intrinsics cores because
  // a portable interleave would let the compiler contract rows differently.
  GemmFn nt_rowwise;
  GatherFn gather;
  // Quantized serving tier cores: exact integer accumulation (int8_nt) and
  // fully-determined per-element rounding (quantize_rows), so the level
  // choice can never change their results.
  Int8Fn int8_nt;
  QuantFn quantize_rows;
  SimdCapability capability = SimdCapability::kGeneric;
};

// Highest level both compiled in and supported by this CPU.
SimdCapability ProbeBestCapability() {
#ifdef PAFEAT_HAVE_AVX2_TU
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
#ifdef PAFEAT_HAVE_AVX512_TU
    // F for 512-bit float math, BW for the int8->int16 widening converts,
    // DQ for the 256-bit half inserts the row-pair packing uses.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq")) {
      return SimdCapability::kAvx512;
    }
#endif
    return SimdCapability::kAvx2;
  }
#endif
  return SimdCapability::kGeneric;
}

Dispatch MakeDispatch(SimdCapability level) {
  Dispatch dispatch{generic::GemmNN,       generic::GemmTN,
                    generic::GemmNT,       generic::GemmNT,
                    generic::GemmGatherNN, generic::GemmInt8NT,
                    generic::QuantizeRowsInt8,
                    SimdCapability::kGeneric};
#ifdef PAFEAT_HAVE_AVX2_TU
  if (level >= SimdCapability::kAvx2) {
    dispatch = Dispatch{avx2::GemmNN,       avx2::GemmTN,
                        avx2::GemmNT,       avx2::GemmNTRowwise,
                        avx2::GemmGatherNN, avx2::GemmInt8NT,
                        avx2::QuantizeRowsInt8,
                        SimdCapability::kAvx2};
  }
#endif
#ifdef PAFEAT_HAVE_AVX512_TU
  if (level >= SimdCapability::kAvx512) {
    dispatch.nt_rowwise = avx512::GemmNTRowwise;
    dispatch.gather = avx512::GemmGatherNN;
    dispatch.int8_nt = avx512::GemmInt8NT;
    dispatch.quantize_rows = avx512::QuantizeRowsInt8;
    dispatch.capability = SimdCapability::kAvx512;
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
                        << " is not a capability name ("
                        << "generic|avx2|avx512); keeping "
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

bool DisjointFromCInt8(const std::int32_t* c, long long c_rows, int ldc,
                       const std::int8_t* x, long long x_rows, int ldx) {
  const std::less_equal<const void*> le;
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
  // C += A * B^T == GemmNN(A, B^T): materialize B^T once and reuse the NN
  // core, whose row-broadcast inner loop vectorizes far better than a
  // dot-product kernel (the reduction axis becomes the contiguous one).
  std::vector<float> bt(static_cast<std::size_t>(p) * n);
  for (int j = 0; j < n; ++j) {
    const float* src = b + static_cast<std::size_t>(j) * ldb;
    for (int k = 0; k < p; ++k) bt[static_cast<std::size_t>(k) * n + j] = src[k];
  }
  const GemmFn core = Impl().nn;
  const int panels = NumPanels(m, 2LL * m * n * p);
  if (panels <= 1) {
    core(m, n, p, a, lda, bt.data(), n, c, ldc);
    return;
  }
  RunRowPanels(core, panels, m, n, p, a, lda, static_cast<std::size_t>(lda),
               bt.data(), n, c, ldc);
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

void GemmInt8NT(int m, int n, int p, const std::int8_t* a, int lda,
                const std::int8_t* b, int ldb, std::int32_t* c, int ldc) {
  if (m <= 0 || n <= 0 || p <= 0) return;
  PF_DCHECK_GE(lda, p);
  PF_DCHECK_GE(ldb, p);  // B is n x p, transposed logically
  PF_DCHECK_GE(ldc, n);
  PF_DCHECK_LE(p, kGemmInt8MaxDepth);
  PF_DCHECK(DisjointFromCInt8(c, m, ldc, a, m, lda))
      << "GemmInt8NT: C aliases A";
  PF_DCHECK(DisjointFromCInt8(c, m, ldc, b, n, ldb))
      << "GemmInt8NT: C aliases B";
  // No pool split: the quantized tier serves latency-bound greedy scans
  // whose batches sit far below the fp32 split threshold once int8's ~4x
  // higher arithmetic density is priced in. A split would be trivially safe
  // (integer accumulation is order-exact) if profiling ever wants one.
  Impl().int8_nt(m, n, p, a, lda, b, ldb, c, ldc);
}

void QuantizeRowsInt8(int rows, int n, const float* x, int ldx,
                      std::int8_t* q, int ldq, float* scales) {
  if (rows <= 0 || n <= 0) return;
  PF_DCHECK_GE(ldx, n);
  PF_DCHECK_GE(ldq, n);
  // No pool split for the same reason as GemmInt8NT: serving batches sit
  // far below the fp32 split threshold, and a split would be trivially safe
  // (per-element results are fully determined) if profiling ever wants one.
  Impl().quantize_rows(rows, n, x, ldx, q, ldq, scales);
}

SimdCapability ActiveSimdCapability() { return Impl().capability; }

bool SimdCapabilityAvailable(SimdCapability level) {
  switch (level) {
    case SimdCapability::kGeneric:
      return true;
    case SimdCapability::kAvx2:
      return ProbeBestCapability() >= SimdCapability::kAvx2;
    case SimdCapability::kAvx512:
      return ProbeBestCapability() >= SimdCapability::kAvx512;
  }
  return false;
}

const char* SimdCapabilityName(SimdCapability level) {
  switch (level) {
    case SimdCapability::kGeneric:
      return "generic";
    case SimdCapability::kAvx2:
      return "avx2";
    case SimdCapability::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseSimdCapability(const char* name, SimdCapability* level) {
  if (name == nullptr || level == nullptr) return false;
  for (SimdCapability candidate :
       {SimdCapability::kGeneric, SimdCapability::kAvx2,
        SimdCapability::kAvx512}) {
    if (std::strcmp(name, SimdCapabilityName(candidate)) == 0) {
      *level = candidate;
      return true;
    }
  }
  return false;
}

bool GemmNTRowwiseAt(SimdCapability level, int m, int n, int p,
                     const float* a, int lda, const float* b, int ldb,
                     float* c, int ldc) {
  if (!SimdCapabilityAvailable(level)) return false;
  switch (level) {
    case SimdCapability::kGeneric:
      // The generic dispatch routes row-wise calls to the .inl NT dot core.
      generic::GemmNT(m, n, p, a, lda, b, ldb, c, ldc);
      return true;
#ifdef PAFEAT_HAVE_AVX2_TU
    case SimdCapability::kAvx2:
      avx2::GemmNTRowwise(m, n, p, a, lda, b, ldb, c, ldc);
      return true;
#endif
#ifdef PAFEAT_HAVE_AVX512_TU
    case SimdCapability::kAvx512:
      avx512::GemmNTRowwise(m, n, p, a, lda, b, ldb, c, ldc);
      return true;
#endif
    default:
      return false;
  }
}

bool GemmGatherNNAt(SimdCapability level, int m, int n, const float* a,
                    int lda, const int* cols, int ncols, const float* b,
                    int ldb, float* c, int ldc) {
  if (!SimdCapabilityAvailable(level)) return false;
  switch (level) {
    case SimdCapability::kGeneric:
      generic::GemmGatherNN(m, n, a, lda, cols, ncols, b, ldb, c, ldc);
      return true;
#ifdef PAFEAT_HAVE_AVX2_TU
    case SimdCapability::kAvx2:
      avx2::GemmGatherNN(m, n, a, lda, cols, ncols, b, ldb, c, ldc);
      return true;
#endif
#ifdef PAFEAT_HAVE_AVX512_TU
    case SimdCapability::kAvx512:
      avx512::GemmGatherNN(m, n, a, lda, cols, ncols, b, ldb, c, ldc);
      return true;
#endif
    default:
      return false;
  }
}

bool GemmInt8NTAt(SimdCapability level, int m, int n, int p,
                  const std::int8_t* a, int lda, const std::int8_t* b,
                  int ldb, std::int32_t* c, int ldc) {
  if (!SimdCapabilityAvailable(level)) return false;
  switch (level) {
    case SimdCapability::kGeneric:
      generic::GemmInt8NT(m, n, p, a, lda, b, ldb, c, ldc);
      return true;
#ifdef PAFEAT_HAVE_AVX2_TU
    case SimdCapability::kAvx2:
      avx2::GemmInt8NT(m, n, p, a, lda, b, ldb, c, ldc);
      return true;
#endif
#ifdef PAFEAT_HAVE_AVX512_TU
    case SimdCapability::kAvx512:
      avx512::GemmInt8NT(m, n, p, a, lda, b, ldb, c, ldc);
      return true;
#endif
    default:
      return false;
  }
}

bool QuantizeRowsInt8At(SimdCapability level, int rows, int n, const float* x,
                        int ldx, std::int8_t* q, int ldq, float* scales) {
  if (!SimdCapabilityAvailable(level)) return false;
  switch (level) {
    case SimdCapability::kGeneric:
      generic::QuantizeRowsInt8(rows, n, x, ldx, q, ldq, scales);
      return true;
#ifdef PAFEAT_HAVE_AVX2_TU
    case SimdCapability::kAvx2:
      avx2::QuantizeRowsInt8(rows, n, x, ldx, q, ldq, scales);
      return true;
#endif
#ifdef PAFEAT_HAVE_AVX512_TU
    case SimdCapability::kAvx512:
      avx512::QuantizeRowsInt8(rows, n, x, ldx, q, ldq, scales);
      return true;
#endif
    default:
      return false;
  }
}

}  // namespace kernels
}  // namespace pafeat
