#ifndef PAFEAT_TENSOR_KERNELS_H_
#define PAFEAT_TENSOR_KERNELS_H_

#include <cstdint>

namespace pafeat {
namespace kernels {

// Blocked, vectorization-friendly GEMM kernels on raw row-major buffers —
// the numeric hot path under Matrix, and therefore under nn/, ml/, rl/ and
// the mdfs baseline. All three variants *accumulate* into C (callers pass a
// zeroed buffer for a plain product):
//
//   GemmNN:  C[m x n] += A[m x p]        * B[p x n]
//   GemmTN:  C[m x n] += A[p x m]^T      * B[p x n]
//   GemmNT:  C[m x n] += A[m x p]        * B[n x p]^T
//
// lda/ldb/ldc are row strides in elements (>= the row length), so callers
// can multiply sub-panels in place; m, n or p of zero is a no-op.
//
// Implementation notes (see DESIGN.md "Tensor kernel layer" and "SIMD
// capability ladder"):
//  * Cache-blocked (column panels + k panels) with a 4-row register-tiled,
//    k-unrolled micro-kernel whose inner loop auto-vectorizes; GemmNT at
//    m >= 8 materializes B^T once and reuses the NN core, below that it
//    runs the row-wise dot-product core (see GemmNTRowwise).
//  * Several instantiations of the micro-kernels are compiled — portable,
//    AVX2+FMA, and (for the serving-plane cores) AVX-512 — and dispatched
//    once per process by CPUID, overridable downward via PAFEAT_SIMD.
//  * Large products additionally split their output-row panels across the
//    process-wide ThreadPool. Panels are disjoint, panel boundaries are
//    multiples of the register tile, and every element keeps a fixed
//    accumulation order, so results are bit-identical at any thread count.
void GemmNN(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc);
void GemmTN(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc);
void GemmNT(int m, int n, int p, const float* a, int lda, const float* b,
            int ldb, float* c, int ldc);

// Row-independent variant of GemmNT for the batched inference plane
// (DESIGN.md "Batched inference plane"): always a dot-product core, never
// the m >= 8 transpose+NN strategy, so every output row is computed with an
// operation sequence independent of m (and of the pool row split). Row i of
// an m-row call is bit-identical to a 1-row call on that row — which is also
// what GemmNT itself computes below its transpose threshold, making batched
// Q queries bitwise equal to today's single-row queries by construction.
// On AVX2 hosts the core interleaves four rows per pass (four independent
// FMA chains sharing each streamed B row); the AVX-512 core widens that to
// eight rows per pass while replaying the identical per-row operation
// sequence, so the two x86 SIMD levels produce bit-identical results (see
// DESIGN.md "SIMD capability ladder"). Large batches additionally split row
// panels across the thread pool.
void GemmNTRowwise(int m, int n, int p, const float* a, int lda,
                   const float* b, int ldb, float* c, int ldc);

// Column-gathered product for masked-subset inference (DESIGN.md "Inference
// fast path"):
//
//   GemmGatherNN:  C[m x n] += A[:, cols] * B[cols, :]
//
// where `cols` lists `ncols` column indices of A (= row indices of B), in
// increasing order on the fast path. Every element of C accumulates with
// exactly one rounding per list entry, in list order (no k unroll), so a
// column whose A entries are zero is a bitwise no-op: gathering only a
// mask's selected columns reproduces the full-width zero-masked product bit
// for bit. Row panels split across the thread pool like the kernels above
// (aligned boundaries, per-element order independent of the split).
void GemmGatherNN(int m, int n, const float* a, int lda, const int* cols,
                  int ncols, const float* b, int ldb, float* c, int ldc);

// Int8 row-wise NT product for the quantized serving tier (DESIGN.md
// "Quantized serving tier"):
//
//   GemmInt8NT:  C[m x n] += A[m x p] * B[n x p]^T   (int8 x int8 -> int32)
//
// Accumulation is exact integer arithmetic, so — unlike the float kernels —
// the result is independent of summation order by construction: every
// capability level, lane width and panel split produces identical values.
// Callers must keep p <= kGemmInt8MaxDepth so a dot product cannot overflow
// int32 even at saturated +/-127 operands (checked in checked builds).
inline constexpr int kGemmInt8MaxDepth = 2147483647 / (127 * 127);
void GemmInt8NT(int m, int n, int p, const std::int8_t* a, int lda,
                const std::int8_t* b, int ldb, std::int32_t* c, int ldc);

// Symmetric per-row int8 quantization for the quantized serving tier: for
// each of `rows` rows writes q[k] = round(clamp(x[k] * (127 / maxabs),
// -127, 127)) — round to nearest, ties to even — and scales[r] = maxabs/127
// (scale 1 and all-zero codes for an all-zero row). Every code and scale is
// fully determined element-wise (no accumulation), so all capability levels
// produce identical bytes by construction; the ladder only buys throughput
// (dynamic activation quantization is the serving tier's second-largest
// cost after the int8 product itself). ldx/ldq are row strides in elements.
void QuantizeRowsInt8(int rows, int n, const float* x, int ldx,
                      std::int8_t* q, int ldq, float* scales);

// The SIMD capability ladder (DESIGN.md "SIMD capability ladder"). Exactly
// one level is active per process: the highest one that is both compiled in
// and supported by the CPU, clamped down by the PAFEAT_SIMD environment
// variable ("generic", "avx2", "avx512") when set. The override can only
// lower the level — requesting an unavailable level runs the best available
// one — which is what lets the forced-downgrade test matrix run the same
// binary at every level the host supports.
enum class SimdCapability : int {
  kGeneric = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

// The level every kernel above dispatches to (probed once per process).
SimdCapability ActiveSimdCapability();

// True when `level` is compiled in and supported by this CPU (kGeneric is
// always available). Independent of the PAFEAT_SIMD clamp.
bool SimdCapabilityAvailable(SimdCapability level);

// Stable lower-case name ("generic", "avx2", "avx512") — the tokens
// PAFEAT_SIMD accepts and the bench/JSON tag.
const char* SimdCapabilityName(SimdCapability level);

// Parses a SimdCapabilityName token; returns false (and leaves *level
// untouched) on anything else.
bool ParseSimdCapability(const char* name, SimdCapability* level);

// Test-only direct entry points: run one capability level's single-threaded
// core, bypassing dispatch and the thread-pool row split. Return false
// without touching C when the level is unavailable on this host. These exist
// so one process can compare levels bitwise (tests/simd_dispatch_test.cc);
// production code always goes through the dispatched kernels above.
bool GemmNTRowwiseAt(SimdCapability level, int m, int n, int p,
                     const float* a, int lda, const float* b, int ldb,
                     float* c, int ldc);
bool GemmGatherNNAt(SimdCapability level, int m, int n, const float* a,
                    int lda, const int* cols, int ncols, const float* b,
                    int ldb, float* c, int ldc);
bool GemmInt8NTAt(SimdCapability level, int m, int n, int p,
                  const std::int8_t* a, int lda, const std::int8_t* b,
                  int ldb, std::int32_t* c, int ldc);
bool QuantizeRowsInt8At(SimdCapability level, int rows, int n, const float* x,
                        int ldx, std::int8_t* q, int ldq, float* scales);

}  // namespace kernels
}  // namespace pafeat

#endif  // PAFEAT_TENSOR_KERNELS_H_
