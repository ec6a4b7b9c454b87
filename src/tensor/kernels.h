#ifndef PAFEAT_TENSOR_KERNELS_H_
#define PAFEAT_TENSOR_KERNELS_H_

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
//    m >= 8 packs B^T a k block at a time into storage each executing
//    thread reuses across calls and runs the NN core on each block, below
//    that it runs the row-wise dot-product core (see GemmNTRowwise).
//  * Two instantiations of the micro-kernels are compiled — portable and
//    AVX2+FMA — and dispatched once per process by CPUID, overridable
//    downward via PAFEAT_SIMD.
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
// FMA chains sharing each streamed B row) without changing any row's
// operations. Large batches additionally split row panels across the thread
// pool.
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

// Carry of a one-row GemmNTRowwise for the greedy scan (DESIGN.md
// "Inference fast path"). GemmNTRowwise fixes every output element's
// operations at every level: one kRowwiseLanes-lane accumulator that starts
// at +0 and walks k in full blocks of kRowwiseLanes (a fused multiply-add
// per lane on AVX2, a separate multiply and add on the generic level), then
// a scalar tail from 0, then the lane adds in order. The pair below cuts
// that sequence at a block boundary, so a caller whose leading columns
// change only in known ways can keep the lanes between products:
//
//   RowwiseCarryInit:    lanes[j][t] = lane t of (row a . row j of B) after
//                        the blocks [0, k_end)
//   RowwiseCarryFinish:  c[j] += the rest: the blocks [k_begin, p) continued
//                        from lanes[j], the tail, the lane adds
//
// With k_begin == k_end (multiples of kRowwiseLanes, at most p), Init then
// Finish adds to each c[j] exactly the bits a one-row GemmNTRowwise adds.
// `lanes` is n x kRowwiseLanes.
inline constexpr int kRowwiseLanes = 8;
void RowwiseCarryInit(int n, int k_end, const float* a, const float* b,
                      int ldb, float* lanes);
void RowwiseCarryFinish(int n, int p, int k_begin, const float* a,
                        const float* b, int ldb, const float* lanes,
                        float* c);

// Elementwise cores (kernels_elementwise.cc; DESIGN.md "Tensor kernel
// layer & threading model"). One portable core serves every SIMD
// level: it is never dispatched, and its TU builds with contraction off, so
// each element sees exactly the operations of the scalar source loop (an
// unfused multiply and add, IEEE division and square root) and the bits do
// not depend on the host.
//
// One Adam step (Kingma & Ba) over n parameters, per element j in order:
//   m[j] = beta1 * m[j] + (1 - beta1) * grad[j]
//   v[j] = beta2 * v[j] + (1 - beta2) * grad[j] * grad[j]
//   param[j] -= learning_rate * (m[j] / bias1) /
//               (sqrt(v[j] / bias2) + epsilon)
// where bias1 = 1 - beta1^t and bias2 = 1 - beta2^t are the step's
// bias corrections. The four arrays must not overlap.
struct AdamCoefficients {
  float learning_rate;
  float beta1;
  float beta2;
  float epsilon;
  float bias1;
  float bias2;
};
void AdamUpdate(const AdamCoefficients& coefficients, int n,
                const float* grad, float* m, float* v, float* param);
// ReLU in place, x < 0 ? 0 : x: -0 and NaN keep their bits.
void Relu(int n, float* data);
// ReLU's gradient from the activated output: grad = activated <= 0 ? 0 :
// grad, so a NaN activation keeps its gradient and -0 zeroes it.
void ReluGrad(int n, const float* activated, float* grad);
// A first layer's finish in one pass over a rows x cols buffer: per element,
// s = sum + bias[c] and out = s < 0 ? 0 : s. That is one rounded add and
// Relu's select, so it leaves exactly the bits of copying the sum, adding
// the bias row and applying Relu (-0, NaN and subnormals included). `sum`
// and `out` must not overlap.
void AddBiasRelu(int rows, int cols, const float* sum, const float* bias,
                 float* out);
// Twice the Mann-Whitney U of two score sets, counted pair by pair in
// integers: the sum over every (p, n) of 2 [n < p] + [n == p]. Exact for
// any order of either set; ±0 compare equal and a NaN pair counts 0.
// Requires num_neg < 2^30.
long long PairwiseTwiceU(int num_pos, const float* pos, int num_neg,
                         const float* neg);

// Column statistics of the task representation (data/stats.cc; DESIGN.md
// "Task representation"), dispatched like the GEMMs but with the same bits
// at every level. x is row-major with row stride ldx; each core walks the
// num_rows row indices in `rows`, in list order, and *accumulates* into one
// double per column c in [0, m) (callers pass zeroed output for a plain
// sum). Each float is widened to double first, then per listed row r:
//
//   ColumnSums:             sums[c]        += x[r][c]
//   ColumnCenteredSquares:  sum_squares[c] += d * d,  d = x[r][c] - means[c]
//   ColumnCrossSums:        cross[c]       += (x[r][c] - means[c]) * dy,
//                                             dy = labels[r] - label_mean
//
// one rounded operation at a time (no multiply-add is fused), exactly as a
// row-at-a-time loop over the list computes them. Outputs must not overlap
// the inputs; nothing is allocated.
void ColumnSums(int m, const float* x, int ldx, const int* rows, int num_rows,
                double* sums);
void ColumnCenteredSquares(int m, const float* x, int ldx, const int* rows,
                           int num_rows, const double* means,
                           double* sum_squares);
void ColumnCrossSums(int m, const float* x, int ldx, const int* rows,
                     int num_rows, const double* means, const float* labels,
                     double label_mean, double* cross);

// The SIMD capability ladder (DESIGN.md "SIMD capability ladder"). Exactly
// one level is active per process: the highest one that is both compiled in
// and supported by the CPU, clamped down by the PAFEAT_SIMD environment
// variable ("generic", "avx2") when set. The override can only lower the
// level — requesting an unavailable level runs the best available one —
// which is what lets the forced-downgrade test matrix run the same binary at
// every level the host supports.
enum class SimdCapability : int {
  kGeneric = 0,
  kAvx2 = 1,
};

// The level every dispatched kernel above runs at (probed once per process).
SimdCapability ActiveSimdCapability();

// True when `level` is compiled in and supported by this CPU (kGeneric is
// always available). Independent of the PAFEAT_SIMD clamp.
bool SimdCapabilityAvailable(SimdCapability level);

// Stable lower-case name ("generic", "avx2") — the tokens PAFEAT_SIMD
// accepts and the bench/JSON tag.
const char* SimdCapabilityName(SimdCapability level);

// Parses a SimdCapabilityName token; returns false (and leaves *level
// untouched) on anything else.
bool ParseSimdCapability(const char* name, SimdCapability* level);

}  // namespace kernels
}  // namespace pafeat

#endif  // PAFEAT_TENSOR_KERNELS_H_
