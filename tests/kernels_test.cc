#include "tensor/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/matrix.h"

namespace pafeat {
namespace {

// Textbook triple loops on raw buffers: the ground truth the blocked
// kernels must reproduce on every shape, however awkward.
std::vector<float> RefNN(int m, int n, int p, const std::vector<float>& a,
                         const std::vector<float>& b) {
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int k = 0; k < p; ++k) acc += a[i * p + k] * b[k * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

std::vector<float> RefTN(int m, int n, int p, const std::vector<float>& a,
                         const std::vector<float>& b) {
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int k = 0; k < p; ++k) acc += a[k * m + i] * b[k * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

std::vector<float> RefNT(int m, int n, int p, const std::vector<float>& a,
                         const std::vector<float>& b) {
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int k = 0; k < p; ++k) acc += a[i * p + k] * b[j * p + k];
      c[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

std::vector<float> RandomVec(size_t size, Rng* rng) {
  std::vector<float> v(size);
  for (float& x : v) x = static_cast<float>(rng->Normal(0.0, 1.0));
  return v;
}

void ExpectAllNear(const std::vector<float>& got,
                   const std::vector<float>& want, int n, float tol) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol)
        << "element (" << i / n << ", " << i % n << ")";
  }
}

// (m, n, p) shapes chosen to hit every edge: unit dims, vectors, sizes
// straddling the 4-row register tile, the 8-lane dot accumulator, and the
// 256-wide cache blocks.
class KernelShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KernelShapeTest, GemmNNMatchesReference) {
  const auto [m, n, p] = GetParam();
  Rng rng(11 + m * 97 + n * 13 + p);
  const std::vector<float> a = RandomVec(static_cast<size_t>(m) * p, &rng);
  const std::vector<float> b = RandomVec(static_cast<size_t>(p) * n, &rng);
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  kernels::GemmNN(m, n, p, a.data(), p, b.data(), n, c.data(), n);
  const float tol = 1e-4f * std::sqrt(static_cast<float>(p + 1));
  ExpectAllNear(c, RefNN(m, n, p, a, b), n, tol);
}

TEST_P(KernelShapeTest, GemmTNMatchesReference) {
  const auto [m, n, p] = GetParam();
  Rng rng(23 + m * 97 + n * 13 + p);
  const std::vector<float> a = RandomVec(static_cast<size_t>(p) * m, &rng);
  const std::vector<float> b = RandomVec(static_cast<size_t>(p) * n, &rng);
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  kernels::GemmTN(m, n, p, a.data(), m, b.data(), n, c.data(), n);
  const float tol = 1e-4f * std::sqrt(static_cast<float>(p + 1));
  ExpectAllNear(c, RefTN(m, n, p, a, b), n, tol);
}

TEST_P(KernelShapeTest, GemmNTMatchesReference) {
  const auto [m, n, p] = GetParam();
  Rng rng(37 + m * 97 + n * 13 + p);
  const std::vector<float> a = RandomVec(static_cast<size_t>(m) * p, &rng);
  const std::vector<float> b = RandomVec(static_cast<size_t>(n) * p, &rng);
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  kernels::GemmNT(m, n, p, a.data(), p, b.data(), p, c.data(), n);
  const float tol = 1e-4f * std::sqrt(static_cast<float>(p + 1));
  ExpectAllNear(c, RefNT(m, n, p, a, b), n, tol);
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, KernelShapeTest,
    ::testing::Values(
        std::make_tuple(1, 1, 1),      // scalar product
        std::make_tuple(1, 97, 1),     // outer product row
        std::make_tuple(97, 1, 1),     // outer product column
        std::make_tuple(1, 1, 301),    // pure dot, k past one cache block
        std::make_tuple(1, 64, 147),   // greedy-inference shape (single obs)
        std::make_tuple(3, 5, 2),      // everything below one tile
        std::make_tuple(4, 4, 4),      // exactly one register tile
        std::make_tuple(5, 9, 7),      // one past the tile in every dim
        std::make_tuple(8, 8, 8),      // exactly the dot lane width
        std::make_tuple(13, 17, 9),    // odd everything
        std::make_tuple(32, 64, 147),  // training batch forward shape
        std::make_tuple(61, 59, 67),   // primes near the blocking sizes
        std::make_tuple(70, 300, 260)  // spans kColBlock and kKBlock edges
        ));

TEST(KernelsTest, ZeroSizedDimsAreNoOps) {
  // m, n, or p of zero must not touch C (and must not crash on null-ish
  // spans); seed C with a sentinel to prove it.
  std::vector<float> a(12, 1.0f), b(12, 1.0f), c(12, -7.0f);
  kernels::GemmNN(0, 3, 4, a.data(), 4, b.data(), 3, c.data(), 3);
  kernels::GemmNN(3, 0, 4, a.data(), 4, b.data(), 1, c.data(), 1);
  kernels::GemmNN(3, 4, 0, a.data(), 1, b.data(), 4, c.data(), 4);
  kernels::GemmTN(0, 3, 4, a.data(), 1, b.data(), 3, c.data(), 3);
  kernels::GemmNT(3, 0, 4, a.data(), 4, b.data(), 4, c.data(), 1);
  for (float v : c) EXPECT_FLOAT_EQ(v, -7.0f);
}

TEST(KernelsTest, AccumulatesIntoExistingC) {
  // The kernels add on top of C rather than overwrite it.
  std::vector<float> a = {1.0f, 2.0f, 3.0f, 4.0f};  // 2x2
  std::vector<float> b = {1.0f, 0.0f, 0.0f, 1.0f};  // identity
  std::vector<float> c = {10.0f, 10.0f, 10.0f, 10.0f};
  kernels::GemmNN(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 11.0f);
  EXPECT_FLOAT_EQ(c[1], 12.0f);
  EXPECT_FLOAT_EQ(c[2], 13.0f);
  EXPECT_FLOAT_EQ(c[3], 14.0f);
}

TEST(KernelsTest, SmallIntegerProductsAreExact) {
  // Integer-valued inputs with small products are exactly representable, so
  // the result must be exact no matter how the kernel reorders the sums.
  const int m = 19, n = 23, p = 31;
  Rng rng(5);
  std::vector<float> a(static_cast<size_t>(m) * p), b(static_cast<size_t>(p) * n);
  for (float& v : a) v = static_cast<float>(rng.UniformInt(7)) - 3.0f;
  for (float& v : b) v = static_cast<float>(rng.UniformInt(7)) - 3.0f;
  std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
  kernels::GemmNN(m, n, p, a.data(), p, b.data(), n, c.data(), n);
  const std::vector<float> ref = RefNN(m, n, p, a, b);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_FLOAT_EQ(c[i], ref[i]);
}

TEST(KernelsTest, SubPanelStridesWork) {
  // Multiply interior panels of larger buffers: ld > logical row length.
  const int lda = 10, ldb = 9, ldc = 8;
  const int m = 3, n = 4, p = 5;
  Rng rng(7);
  std::vector<float> abuf = RandomVec(6 * lda, &rng);
  std::vector<float> bbuf = RandomVec(7 * ldb, &rng);
  std::vector<float> cbuf(5 * ldc, 0.0f);
  kernels::GemmNN(m, n, p, abuf.data(), lda, bbuf.data(), ldb, cbuf.data(),
                  ldc);
  // Dense copies of the same panels for the reference.
  std::vector<float> a(static_cast<size_t>(m) * p), b(static_cast<size_t>(p) * n);
  for (int i = 0; i < m; ++i)
    for (int k = 0; k < p; ++k) a[i * p + k] = abuf[i * lda + k];
  for (int k = 0; k < p; ++k)
    for (int j = 0; j < n; ++j) b[k * n + j] = bbuf[k * ldb + j];
  const std::vector<float> ref = RefNN(m, n, p, a, b);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(cbuf[i * ldc + j], ref[i * n + j], 1e-4f);
    }
  }
  // Rows of C beyond the panel stay untouched.
  for (int i = 0; i < m; ++i) {
    for (int j = n; j < ldc; ++j) EXPECT_FLOAT_EQ(cbuf[i * ldc + j], 0.0f);
  }
}

TEST(KernelsTest, PoolSplitIsBitIdenticalToSerial) {
  // Force the size over the parallel threshold (2*m*n*p >= 4e6) and ensure
  // the row-panel split over the pool produces the same bits as one thread.
  ThreadPool::EnsureGlobalWorkers(3);
  const int m = 160, n = 160, p = 160;
  Rng rng(17);
  const Matrix a = Matrix::RandomNormal(m, p, 1.0f, &rng);
  const Matrix b = Matrix::RandomNormal(p, n, 1.0f, &rng);
  const Matrix pooled = a.MatMul(b);
  // Serial result: 20-row panels are far below the parallel threshold, so
  // each call runs single-threaded; panel starts are multiples of the
  // register tile, so per-element accumulation order is identical and the
  // results must match bit-for-bit.
  Matrix serial(m, n);
  for (int i0 = 0; i0 < m; i0 += 20) {
    kernels::GemmNN(20, n, p, a.Row(i0), p, b.data(), n, serial.Row(i0), n);
  }
  for (int i = 0; i < m * n; ++i) {
    ASSERT_EQ(pooled.data()[i], serial.data()[i]) << "element " << i;
  }
}

TEST(KernelsTest, MatrixDelegationMatchesKernels) {
  // Matrix::MatMul/TransposedMatMul/MatMulTransposed are thin wrappers; a
  // spot check ties the two layers together.
  Rng rng(29);
  const Matrix a = Matrix::RandomNormal(6, 9, 1.0f, &rng);
  const Matrix b = Matrix::RandomNormal(9, 5, 1.0f, &rng);
  const Matrix nn = a.MatMul(b);
  std::vector<float> c(6 * 5, 0.0f);
  kernels::GemmNN(6, 5, 9, a.data(), 9, b.data(), 5, c.data(), 5);
  for (int i = 0; i < 30; ++i) EXPECT_FLOAT_EQ(nn.data()[i], c[i]);
}

// GemmNT at m >= 8 packs B^T a k block at a time into per-thread storage:
// pure data movement, so the product must equal the NN core on an explicit
// transpose bit for bit, whatever the shape and whatever ran before.
struct NtCase {
  int m, n, p;
};

std::vector<float> GemmNTOf(const NtCase& s, const std::vector<float>& a,
                            const std::vector<float>& b, int ldb) {
  std::vector<float> c(static_cast<size_t>(s.m) * s.n, 0.0f);
  kernels::GemmNT(s.m, s.n, s.p, a.data(), s.p, b.data(), ldb, c.data(), s.n);
  return c;
}

std::vector<float> GemmNNOnTranspose(const NtCase& s,
                                     const std::vector<float>& a,
                                     const std::vector<float>& b, int ldb) {
  std::vector<float> bt(static_cast<size_t>(s.p) * s.n);
  for (int j = 0; j < s.n; ++j) {
    for (int k = 0; k < s.p; ++k) {
      bt[static_cast<size_t>(k) * s.n + j] =
          b[static_cast<size_t>(j) * ldb + k];
    }
  }
  std::vector<float> c(static_cast<size_t>(s.m) * s.n, 0.0f);
  kernels::GemmNN(s.m, s.n, s.p, a.data(), s.p, bt.data(), s.n, c.data(),
                  s.n);
  return c;
}

bool SameBits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// Shapes crossing the packing's 4-row groups and 64-deep slices, the
// 256-deep pack blocks (= kKBlock) and the NN core's 256-wide column panels
// (kColBlock), including the Q-network's training shapes at m = 103 and
// m = 1020 (p = 2m + 3) and a pool-split product.
const std::vector<NtCase>& NtCases() {
  static const std::vector<NtCase> cases = {
      {8, 1, 1},     {9, 3, 5},      {8, 4, 64},     {12, 5, 65},
      {13, 67, 63},  {16, 64, 209},  {8, 7, 255},    {11, 9, 256},
      {10, 6, 257},  {33, 259, 261}, {17, 300, 517}, {40, 17, 1030},
      {32, 64, 2043}, {64, 33, 129}};
  return cases;
}

TEST(KernelsTest, GemmNTMatchesNNOnExplicitTransposeBitForBit) {
  // Large and small shapes alternate on this thread, so every product runs
  // on storage a larger one left full of other values; a B stride past the
  // row length checks the packing reads through ldb.
  ThreadPool::EnsureGlobalWorkers(3);
  const std::vector<NtCase>& cases = NtCases();
  std::vector<NtCase> order;
  for (size_t i = 0; i < cases.size(); ++i) {
    order.push_back(cases[cases.size() - 1 - i]);
    order.push_back(cases[i]);
  }
  for (const NtCase& s : order) {
    Rng rng(41 + s.m * 131 + s.n * 7 + s.p);
    const int ldb = s.p + 3;
    const std::vector<float> a =
        RandomVec(static_cast<size_t>(s.m) * s.p, &rng);
    const std::vector<float> b =
        RandomVec(static_cast<size_t>(s.n) * ldb, &rng);
    EXPECT_TRUE(SameBits(GemmNTOf(s, a, b, ldb),
                         GemmNNOnTranspose(s, a, b, ldb)))
        << "m=" << s.m << " n=" << s.n << " p=" << s.p;
  }
}

TEST(KernelsTest, GemmNTIsExactOnConcurrentPoolWorkers) {
  // Each index of a ParallelFor body runs GemmNT on whichever executor
  // picks it up (pool workers and the caller, whose nested panel fan-out
  // runs inline), every executor packing into its own storage at once.
  ThreadPool::EnsureGlobalWorkers(3);
  const std::vector<NtCase>& cases = NtCases();
  const int count = 3 * static_cast<int>(cases.size());
  std::vector<std::vector<float>> a(count), b(count), want(count), got(count);
  for (int t = 0; t < count; ++t) {
    const NtCase& s = cases[t % cases.size()];
    Rng rng(97 + t);
    a[t] = RandomVec(static_cast<size_t>(s.m) * s.p, &rng);
    b[t] = RandomVec(static_cast<size_t>(s.n) * s.p, &rng);
    want[t] = GemmNNOnTranspose(s, a[t], b[t], s.p);
  }
  ThreadPool::Global()->ParallelFor(count, count, [&](int t) {
    got[t] = GemmNTOf(cases[t % cases.size()], a[t], b[t],
                      cases[t % cases.size()].p);
  });
  for (int t = 0; t < count; ++t) {
    const NtCase& s = cases[t % cases.size()];
    EXPECT_TRUE(SameBits(got[t], want[t]))
        << "index " << t << ": m=" << s.m << " n=" << s.n << " p=" << s.p;
  }
}

// The quiet NaN this platform's arithmetic produces (Inf - Inf): every NaN
// the Adam inputs carry uses these bits, so a NaN result is the same NaN
// whichever operand of a commutative add or multiply the compiler puts
// first.
float GeneratedNaN() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

float FromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

// The Adam loop as AdamOptimizer::Step ran it before the elementwise kernel
// existed, compiled with this file's flags (no FMA): the reference the
// vectorized core must reproduce bit for bit.
void ReferenceAdam(const kernels::AdamCoefficients& k, int n, const float* g,
                   float* m, float* v, float* p) {
  for (int j = 0; j < n; ++j) {
    m[j] = k.beta1 * m[j] + (1.0f - k.beta1) * g[j];
    v[j] = k.beta2 * v[j] + (1.0f - k.beta2) * g[j] * g[j];
    const float m_hat = m[j] / k.bias1;
    const float v_hat = v[j] / k.bias2;
    p[j] -= k.learning_rate * m_hat / (std::sqrt(v_hat) + k.epsilon);
  }
}

TEST(KernelsTest, AdamUpdateMatchesScalarLoop) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kDenorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {
      0.0f,   -0.0f,  kDenorm, -kDenorm, 1e-40f, -3e-39f, 1e-45f * 7,
      kInf,   -kInf,  GeneratedNaN()};
  std::vector<int> lengths;
  for (int n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(33);
  lengths.push_back(4099);
  for (const int n : lengths) {
    Rng rng(1000 + n);
    // One value in `one_in` is a special; the rest are normal draws.
    const auto draw = [&](int one_in, double scale) {
      if (rng.UniformInt(one_in) == 0) {
        return specials[rng.UniformInt(static_cast<int>(specials.size()))];
      }
      return static_cast<float>(rng.Normal(0.0, scale));
    };
    std::vector<float> m(n), v(n), p(n), g(n);
    for (int j = 0; j < n; ++j) {
      m[j] = draw(4, 0.1);
      v[j] = draw(4, 0.01);  // negative moments reach sqrt of a negative
      p[j] = static_cast<float>(rng.Normal(0.0, 1.0));
    }
    std::vector<float> ref_m = m, ref_v = v, ref_p = p;
    const float beta1 = 0.9f, beta2 = 0.999f;
    for (int step = 1; step <= 50; ++step) {
      for (float& x : g) x = draw(64, 1.0);
      const kernels::AdamCoefficients k{
          1e-3f, beta1, beta2, 1e-8f,
          1.0f - std::pow(beta1, static_cast<float>(step)),
          1.0f - std::pow(beta2, static_cast<float>(step))};
      kernels::AdamUpdate(k, n, g.data(), m.data(), v.data(), p.data());
      ReferenceAdam(k, n, g.data(), ref_m.data(), ref_v.data(), ref_p.data());
    }
    EXPECT_TRUE(SameBits(m, ref_m)) << "first moment, n=" << n;
    EXPECT_TRUE(SameBits(v, ref_v)) << "second moment, n=" << n;
    EXPECT_TRUE(SameBits(p, ref_p)) << "parameters, n=" << n;
  }
}

TEST(KernelsTest, ReluMatchesBranch) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kDenorm = std::numeric_limits<float>::denorm_min();
  // Signed zeros, subnormals, infinities and NaNs of both signs with
  // several payloads, quiet and signaling: ReLU only compares and selects,
  // so every value it keeps keeps its bits.
  const std::vector<float> specials = {
      0.0f, -0.0f, kDenorm, -kDenorm, 1e-40f, -1e-40f, kInf, -kInf,
      FromBits(0x7fc00000u), FromBits(0xffc00000u), FromBits(0x7fc0beefu),
      FromBits(0xffd00001u), FromBits(0x7f800001u), FromBits(0xff8abcdeu)};
  const int num_specials = static_cast<int>(specials.size());
  for (const int n : {0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 33, 1000}) {
    // Two entries in three cycle through the specials from an n-dependent
    // start, so each length puts them in other vector lanes and tails.
    Rng rng(7 + n);
    std::vector<float> x(n), grad(n);
    for (int i = 0; i < n; ++i) {
      x[i] = i % 3 == 2 ? static_cast<float>(rng.Normal(0.0, 1.0))
                        : specials[(i + n) % num_specials];
      grad[i] = i % 3 == 1 ? static_cast<float>(rng.Normal(0.0, 1.0))
                           : specials[(i + 2 * n) % num_specials];
    }

    std::vector<float> relu = x, branch = x;
    kernels::Relu(n, relu.data());
    for (int i = 0; i < n; ++i) {
      if (branch[i] < 0.0f) branch[i] = 0.0f;
    }
    EXPECT_TRUE(SameBits(relu, branch)) << "forward, n=" << n;

    // The gradient reads the activation: x itself, so NaN, -0 and negative
    // activations all reach it.
    std::vector<float> relu_grad = grad, branch_grad = grad;
    kernels::ReluGrad(n, x.data(), relu_grad.data());
    for (int i = 0; i < n; ++i) {
      if (x[i] <= 0.0f) branch_grad[i] = 0.0f;
    }
    EXPECT_TRUE(SameBits(relu_grad, branch_grad)) << "gradient, n=" << n;
  }
}

TEST(KernelsTest, AddBiasReluMatchesCopyBiasRelu) {
  // The fused first-layer finish against the three steps it replaces: copy
  // the sum, add the bias row (Mlp's AddBiasRows loop), apply Relu. Sums
  // include -0, NaN and subnormals, and biases include -0 and subnormals,
  // so -0 + -0, x + -x and subnormal rounding all reach the add.
  const float kDenorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {
      0.0f, -0.0f, kDenorm, -kDenorm, 1e-40f, -1e-40f,
      FromBits(0x7fc00000u), FromBits(0xffc0beefu), 3.0f, -3.0f};
  const int num_specials = static_cast<int>(specials.size());
  for (const int rows : {1, 3, 4, 8, 128, 130}) {
    for (const int cols : {1, 7, 8, 32, 33, 64}) {
      Rng rng(rows * 131 + cols);
      const int count = rows * cols;
      std::vector<float> sum(count), bias(cols);
      for (int i = 0; i < count; ++i) {
        sum[i] = i % 3 == 0 ? specials[(i + rows) % num_specials]
                            : static_cast<float>(rng.Normal(0.0, 1.0));
      }
      for (int c = 0; c < cols; ++c) {
        bias[c] = c % 4 == 0 ? specials[(c + cols) % 6]
                             : static_cast<float>(rng.Normal(0.0, 0.5));
      }
      std::vector<float> fused(count), stepped = sum;
      kernels::AddBiasRelu(rows, cols, sum.data(), bias.data(), fused.data());
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) stepped[r * cols + c] += bias[c];
      }
      kernels::Relu(count, stepped.data());
      EXPECT_TRUE(SameBits(fused, stepped)) << rows << " x " << cols;
    }
  }
}

}  // namespace
}  // namespace pafeat
