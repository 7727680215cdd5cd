#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "autodiff/tape.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/trainer.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

namespace rpas::tensor::kernels {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// Maps a double's bit pattern to a monotonically ordered signed integer so
/// ULP distances can be computed by subtraction (-0.0 and +0.0 map to the
/// same key).
int64_t OrderedBits(double x) {
  int64_t i;
  std::memcpy(&i, &x, sizeof(i));
  return i >= 0 ? i : std::numeric_limits<int64_t>::min() - i;
}

uint64_t UlpDistance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<uint64_t>::max();
  }
  const int64_t x = OrderedBits(a);
  const int64_t y = OrderedBits(b);
  return x >= y ? static_cast<uint64_t>(x) - static_cast<uint64_t>(y)
                : static_cast<uint64_t>(y) - static_cast<uint64_t>(x);
}

/// Every level that can actually execute on this machine, scalar first.
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  for (SimdLevel l : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
    if (LevelSupported(l)) {
      levels.push_back(l);
    }
  }
  return levels;
}

void FillUniform(Matrix* m, Rng* rng, double lo, double hi) {
  for (size_t i = 0; i < m->size(); ++i) {
    (*m)[i] = rng->Uniform(lo, hi);
  }
}

/// Bit-exact legacy GEMM reference (the pre-kernel-layer blocked loops).
Matrix GemmScalarRef(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  GemmRowsScalar(0, a.rows(), b.cols(), a.cols(), a.data(), a.cols(),
                 b.data(), b.cols(), c.data(), b.cols());
  return c;
}

// Ragged shapes straddling the 2/4-wide vector widths, the 8-wide panel
// width, and the cache-block boundaries.
struct GemmShape {
  size_t m, k, n;
};
const GemmShape kGemmShapes[] = {
    {1, 1, 1},  {1, 13, 9},  {3, 5, 7},    {5, 17, 3},  {8, 8, 8},
    {7, 9, 16}, {9, 24, 11}, {13, 31, 33}, {17, 40, 1}, {2, 3, 65},
};

// ------------------------------------------------------------- dispatch ---

TEST(KernelDispatchTest, ScalarLevelAlwaysAvailable) {
  EXPECT_TRUE(LevelCompiled(SimdLevel::kScalar));
  EXPECT_TRUE(LevelSupported(SimdLevel::kScalar));
  EXPECT_TRUE(LevelSupported(ActiveLevel()));
}

TEST(KernelDispatchTest, LevelNames) {
  EXPECT_STREQ("scalar", LevelName(SimdLevel::kScalar));
  EXPECT_STREQ("sse2", LevelName(SimdLevel::kSse2));
  EXPECT_STREQ("avx2", LevelName(SimdLevel::kAvx2));
}

TEST(KernelDispatchTest, ScopedOverrideRestoresPreviousLevel) {
  const SimdLevel before = ActiveLevel();
  {
    ScopedSimdLevel outer(SimdLevel::kScalar);
    EXPECT_EQ(SimdLevel::kScalar, ActiveLevel());
    for (SimdLevel l : SupportedLevels()) {
      ScopedSimdLevel inner(l);
      EXPECT_EQ(l, ActiveLevel());
    }
    EXPECT_EQ(SimdLevel::kScalar, ActiveLevel());
  }
  EXPECT_EQ(before, ActiveLevel());
}

// ----------------------------------------------------------------- GEMM ---

TEST(GemmParityTest, RaggedShapesWithinConditionBound) {
  Rng rng(0xA11CE);
  for (const GemmShape& s : kGemmShapes) {
    Matrix a(s.m, s.k);
    Matrix b(s.k, s.n);
    FillUniform(&a, &rng, -2.0, 2.0);
    FillUniform(&b, &rng, -2.0, 2.0);
    const Matrix ref = GemmScalarRef(a, b);
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel scoped(level);
      Matrix c(s.m, s.n);
      MatMulInto(a, b, &c);
      for (size_t i = 0; i < s.m; ++i) {
        for (size_t j = 0; j < s.n; ++j) {
          double abs_sum = 0.0;
          for (size_t p = 0; p < s.k; ++p) {
            abs_sum += std::fabs(a(i, p) * b(p, j));
          }
          // Reordered/FMA'd accumulation differs from the scalar order by at
          // most a few eps per term of the absolute sum.
          const double tol = 4.0 * static_cast<double>(s.k) * kEps * abs_sum;
          EXPECT_LE(std::fabs(c(i, j) - ref(i, j)), tol)
              << LevelName(level) << " gemm " << s.m << "x" << s.k << "x"
              << s.n << " at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(GemmParityTest, Sse2BitIdenticalToScalar) {
  if (!LevelSupported(SimdLevel::kSse2)) {
    GTEST_SKIP() << "SSE2 not supported on this machine";
  }
  Rng rng(0xB0B);
  for (const GemmShape& s : kGemmShapes) {
    Matrix a(s.m, s.k);
    Matrix b(s.k, s.n);
    FillUniform(&a, &rng, -3.0, 3.0);
    FillUniform(&b, &rng, -3.0, 3.0);
    const Matrix ref = GemmScalarRef(a, b);
    ScopedSimdLevel scoped(SimdLevel::kSse2);
    Matrix c(s.m, s.n);
    MatMulInto(a, b, &c);
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(ref[i], c[i]) << "sse2 gemm diverged at flat index " << i
                              << " for " << s.m << "x" << s.k << "x" << s.n;
    }
  }
}

TEST(GemmParityTest, TransposedVariantsBitIdenticalToCompositionAtScalar) {
  ScopedSimdLevel scoped(SimdLevel::kScalar);
  Rng rng(0xC0FFEE);
  Matrix a(11, 7);
  Matrix b(11, 5);
  FillUniform(&a, &rng, -2.0, 2.0);
  FillUniform(&b, &rng, -2.0, 2.0);
  const Matrix tn = MatMulTN(a, b);
  const Matrix tn_ref = MatMul(Transpose(a), b);
  ASSERT_EQ(tn.rows(), tn_ref.rows());
  ASSERT_EQ(tn.cols(), tn_ref.cols());
  for (size_t i = 0; i < tn.size(); ++i) {
    EXPECT_EQ(tn_ref[i], tn[i]) << "GemmTN flat index " << i;
  }

  Matrix c(9, 13);
  Matrix d(6, 13);
  FillUniform(&c, &rng, -2.0, 2.0);
  FillUniform(&d, &rng, -2.0, 2.0);
  const Matrix nt = MatMulNT(c, d);
  const Matrix nt_ref = MatMul(c, Transpose(d));
  ASSERT_EQ(nt.rows(), nt_ref.rows());
  ASSERT_EQ(nt.cols(), nt_ref.cols());
  for (size_t i = 0; i < nt.size(); ++i) {
    EXPECT_EQ(nt_ref[i], nt[i]) << "GemmNT flat index " << i;
  }
}

TEST(GemmParityTest, TransposedVariantsWithinConditionBoundAtAllLevels) {
  Rng rng(0xDEAD);
  Matrix a(14, 9);
  Matrix b(14, 10);
  FillUniform(&a, &rng, -2.0, 2.0);
  FillUniform(&b, &rng, -2.0, 2.0);
  Matrix ref_tn;
  Matrix ref_nt;
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    ref_tn = MatMulTN(a, b);
    ref_nt = MatMulNT(Transpose(a), Transpose(b));
  }
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    const Matrix tn = MatMulTN(a, b);
    const Matrix nt = MatMulNT(Transpose(a), Transpose(b));
    const double k = static_cast<double>(a.rows());
    for (size_t i = 0; i < tn.size(); ++i) {
      const double tol = 4.0 * k * kEps * (std::fabs(ref_tn[i]) + k * 4.0);
      EXPECT_NEAR(ref_tn[i], tn[i], tol) << LevelName(level) << " GemmTN";
      EXPECT_NEAR(ref_nt[i], nt[i], tol) << LevelName(level) << " GemmNT";
    }
  }
}

// The serve layer's batched-vs-unbatched bit-identity reduces to this
// kernel-level property: each output row depends only on that row of A.
TEST(GemmParityTest, RowResultsIndependentOfBatchSize) {
  Rng rng(0xFEED);
  const size_t m = 6, k = 13, n = 9;
  Matrix a(m, k);
  Matrix b(k, n);
  FillUniform(&a, &rng, -2.0, 2.0);
  FillUniform(&b, &rng, -2.0, 2.0);
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    Matrix full(m, n);
    MatMulInto(a, b, &full);
    for (size_t r = 0; r < m; ++r) {
      Matrix row(1, k);
      for (size_t p = 0; p < k; ++p) {
        row(0, p) = a(r, p);
      }
      Matrix out(1, n);
      MatMulInto(row, b, &out);
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(full(r, j), out(0, j))
            << LevelName(level) << " row " << r << " col " << j;
      }
    }
  }
}

// ------------------------------------------------------------- int8 GEMM ---

/// Encodes a k x n row-major weight matrix as a kQ8 payload.
std::vector<uint8_t> EncodeQ8(const Matrix& w) {
  std::vector<uint8_t> payload(PayloadBytes(DType::kQ8, w.size()));
  EncodePayload(DType::kQ8, w.data(), w.size(), payload.data());
  return payload;
}

/// The weights the dequant path actually multiplies by: the exact decode of
/// the stored q8 blocks (NOT the original fp64 weights).
Matrix DecodeQ8(const std::vector<uint8_t>& payload, size_t k, size_t n) {
  Matrix w(k, n);
  DecodePayload(DType::kQ8, payload.data(), w.size(), w.data());
  return w;
}

// Shapes straddling the 64-wide int8 k-block: partial single block, exact
// block, partial second block, multiple blocks.
const GemmShape kInt8Shapes[] = {
    {1, 1, 1},   {3, 13, 9},  {5, 63, 7},   {4, 64, 8},
    {7, 65, 16}, {2, 100, 5}, {6, 200, 33},
};

// The int8 fast path applies per-block scales in ascending k order for
// every output element at every level, and the integer block dots are
// exact (maddubs pair sums bounded below i16 saturation), so results are
// bit-identical across scalar/SSE2/AVX2.
TEST(GemmQuantInt8Test, BitIdenticalAcrossSimdLevels) {
  ScopedGemmQuantInt8 int8_on(true);
  Rng rng(0x18A7);
  for (const GemmShape& s : kInt8Shapes) {
    Matrix a(s.m, s.k);
    Matrix w(s.k, s.n);
    FillUniform(&a, &rng, -2.0, 2.0);
    FillUniform(&w, &rng, -2.0, 2.0);
    const std::vector<uint8_t> payload = EncodeQ8(w);
    Matrix ref(s.m, s.n);
    GemmQuant(SimdLevel::kScalar, s.m, s.n, s.k, a.data(), s.k,
              DType::kQ8, payload.data(), ref.data(), s.n);
    for (SimdLevel level : SupportedLevels()) {
      Matrix c(s.m, s.n);
      GemmQuant(level, s.m, s.n, s.k, a.data(), s.k, DType::kQ8,
                payload.data(), c.data(), s.n);
      for (size_t i = 0; i < c.size(); ++i) {
        EXPECT_EQ(ref[i], c[i])
            << LevelName(level) << " int8 gemm " << s.m << "x" << s.k << "x"
            << s.n << " flat index " << i;
      }
    }
  }
}

// The int8 result tracks the dequant reference within the analytic
// quantization-error bound: requantizing decoded weights and quantizing
// activations each round to within half a step of their 64-wide block's
// symmetric grid, so per term |Δ(a*w)| <= |a|*wstep/2 + |w|*astep/2 +
// (astep/2)*(wstep/2) with step = blockmax/127.
TEST(GemmQuantInt8Test, WithinQuantizationErrorBoundOfDequantPath) {
  Rng rng(0xBEEF);
  for (const GemmShape& s : kInt8Shapes) {
    Matrix a(s.m, s.k);
    Matrix w(s.k, s.n);
    FillUniform(&a, &rng, -2.0, 2.0);
    FillUniform(&w, &rng, -2.0, 2.0);
    const std::vector<uint8_t> payload = EncodeQ8(w);
    const Matrix w_dec = DecodeQ8(payload, s.k, s.n);

    Matrix dequant(s.m, s.n);
    {
      ScopedGemmQuantInt8 int8_off(false);
      GemmQuant(SimdLevel::kScalar, s.m, s.n, s.k, a.data(), s.k,
                DType::kQ8, payload.data(), dequant.data(), s.n);
    }
    Matrix int8(s.m, s.n);
    {
      ScopedGemmQuantInt8 int8_on(true);
      GemmQuant(SimdLevel::kScalar, s.m, s.n, s.k, a.data(), s.k,
                DType::kQ8, payload.data(), int8.data(), s.n);
    }

    const size_t blocks = (s.k + 63) / 64;
    for (size_t i = 0; i < s.m; ++i) {
      for (size_t j = 0; j < s.n; ++j) {
        double bound = 1e-9;
        for (size_t t = 0; t < blocks; ++t) {
          const size_t p0 = t * 64;
          const size_t p1 = std::min(p0 + 64, s.k);
          double amax = 0.0;
          double wmax = 0.0;
          for (size_t p = p0; p < p1; ++p) {
            amax = std::max(amax, std::fabs(a(i, p)));
            wmax = std::max(wmax, std::fabs(w_dec(p, j)));
          }
          const double astep2 = amax / 254.0;  // astep / 2
          const double wstep2 = wmax / 254.0;
          for (size_t p = p0; p < p1; ++p) {
            bound += std::fabs(a(i, p)) * wstep2 +
                     std::fabs(w_dec(p, j)) * astep2 + astep2 * wstep2;
          }
        }
        EXPECT_LE(std::fabs(int8(i, j) - dequant(i, j)), bound)
            << "int8 vs dequant " << s.m << "x" << s.k << "x" << s.n
            << " at (" << i << "," << j << ")";
      }
    }
  }
}

// Off-mode regression: with the flag off (the default), GemmQuant on q8
// payloads is bit-identical to an explicit decode + Gemm — the fast path's
// existence changes nothing for callers who did not opt in. Also checks
// both paths accumulate (C +=) and that the scoped override nests.
TEST(GemmQuantInt8Test, OffModeBitIdenticalToDecodePlusGemmAndAccumulates) {
  Rng rng(0x0FF);
  const size_t m = 5, k = 70, n = 9;
  Matrix a(m, k);
  Matrix w(k, n);
  FillUniform(&a, &rng, -2.0, 2.0);
  FillUniform(&w, &rng, -2.0, 2.0);
  const std::vector<uint8_t> payload = EncodeQ8(w);
  const Matrix w_dec = DecodeQ8(payload, k, n);

  Matrix expected(m, n);
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i] = 0.25;
  }
  Gemm(SimdLevel::kScalar, m, n, k, a.data(), k, w_dec.data(), n,
       expected.data(), n);

  Matrix c(m, n);
  for (size_t i = 0; i < c.size(); ++i) {
    c[i] = 0.25;
  }
  {
    // Pin the flag off so the regression holds even under RPAS_INT8_GEMM=1.
    ScopedGemmQuantInt8 int8_off(false);
    GemmQuant(SimdLevel::kScalar, m, n, k, a.data(), k, DType::kQ8,
              payload.data(), c.data(), n);
  }
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(expected[i], c[i]) << "off-mode q8 flat index " << i;
  }

  // The int8 path accumulates too: running it on a prefilled C shifts the
  // result by exactly the prefill.
  Matrix z0(m, n);
  Matrix z1(m, n);
  for (size_t i = 0; i < z1.size(); ++i) {
    z1[i] = 1.5;
  }
  {
    ScopedGemmQuantInt8 int8_on(true);
    EXPECT_TRUE(GemmQuantInt8Enabled());
    {
      ScopedGemmQuantInt8 int8_off(false);
      EXPECT_FALSE(GemmQuantInt8Enabled());
    }
    EXPECT_TRUE(GemmQuantInt8Enabled());
    GemmQuant(SimdLevel::kScalar, m, n, k, a.data(), k, DType::kQ8,
              payload.data(), z0.data(), n);
    GemmQuant(SimdLevel::kScalar, m, n, k, a.data(), k, DType::kQ8,
              payload.data(), z1.data(), n);
  }
  for (size_t i = 0; i < z0.size(); ++i) {
    EXPECT_EQ(z0[i] + 1.5, z1[i]) << "int8 accumulate flat index " << i;
  }
}

// ----------------------------------------------------- vector primitives ---

TEST(VectorOpsTest, AxpyWithinFmaBoundOfScalar) {
  Rng rng(0x1234);
  for (size_t n : {1u, 2u, 3u, 7u, 16u, 33u}) {
    std::vector<double> x(n), y0(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(-2.0, 2.0);
      y0[i] = rng.Uniform(-2.0, 2.0);
    }
    const double alpha = rng.Uniform(-1.5, 1.5);
    std::vector<double> ref = y0;
    Axpy(SimdLevel::kScalar, n, alpha, x.data(), ref.data());
    for (SimdLevel level : SupportedLevels()) {
      std::vector<double> y = y0;
      Axpy(level, n, alpha, x.data(), y.data());
      for (size_t i = 0; i < n; ++i) {
        // FMA single-rounds alpha*x[i] + y[i]; the two-rounding scalar path
        // differs by at most one eps of each operand magnitude.
        const double tol =
            2.0 * kEps * (std::fabs(alpha * x[i]) + std::fabs(y0[i]));
        EXPECT_LE(std::fabs(y[i] - ref[i]), tol)
            << LevelName(level) << " axpy n=" << n << " i=" << i;
        if (level == SimdLevel::kSse2) {
          EXPECT_EQ(ref[i], y[i]) << "sse2 axpy must be bit-identical";
        }
      }
    }
  }
}

TEST(VectorOpsTest, ReductionsWithinConditionBoundOfScalar) {
  Rng rng(0x5678);
  for (size_t n : {1u, 3u, 4u, 9u, 17u, 64u, 129u}) {
    std::vector<double> x(n), y(n);
    double abs_dot = 0.0, abs_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(-2.0, 2.0);
      y[i] = rng.Uniform(-2.0, 2.0);
      abs_dot += std::fabs(x[i] * y[i]);
      abs_sum += std::fabs(x[i]);
    }
    const double ref_dot = Dot(SimdLevel::kScalar, n, x.data(), y.data());
    const double ref_sum = Sum(SimdLevel::kScalar, n, x.data());
    for (SimdLevel level : SupportedLevels()) {
      const double tol_dot = 4.0 * static_cast<double>(n) * kEps * abs_dot;
      const double tol_sum = 4.0 * static_cast<double>(n) * kEps * abs_sum;
      EXPECT_LE(std::fabs(Dot(level, n, x.data(), y.data()) - ref_dot),
                tol_dot)
          << LevelName(level) << " dot n=" << n;
      EXPECT_LE(std::fabs(Sum(level, n, x.data()) - ref_sum), tol_sum)
          << LevelName(level) << " sum n=" << n;
      if (level == SimdLevel::kSse2) {
        // SSE2 keeps the scalar reduction order.
        EXPECT_EQ(ref_dot, Dot(level, n, x.data(), y.data()));
        EXPECT_EQ(ref_sum, Sum(level, n, x.data()));
      }
    }
  }
}

// -------------------------------------------------- elementwise kernels ---

std::vector<double> TranscendentalProbe() {
  std::vector<double> xs = {0.0,   -0.0,  1e-300, -1e-300, 0.5,  -0.5,
                            1.0,   -1.0,  3.75,   -3.75,   19.5, -19.5,
                            25.0,  -25.0, 37.0,   -37.0};
  Rng rng(0x9999);
  for (int i = 0; i < 512; ++i) {
    xs.push_back(rng.Uniform(-20.0, 20.0));
  }
  return xs;
}

TEST(ElementwiseTest, TranscendentalsWithinFourUlpOfScalar) {
  const std::vector<double> xs = TranscendentalProbe();
  const size_t n = xs.size();
  std::vector<double> ref(n), out(n);
  for (SimdLevel level : SupportedLevels()) {
    EwTanh(SimdLevel::kScalar, n, xs.data(), ref.data());
    EwTanh(level, n, xs.data(), out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_LE(UlpDistance(ref[i], out[i]), 4u)
          << LevelName(level) << " tanh(" << xs[i] << ") = " << out[i]
          << " vs " << ref[i];
    }
    EwSigmoid(SimdLevel::kScalar, n, xs.data(), ref.data());
    EwSigmoid(level, n, xs.data(), out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_LE(UlpDistance(ref[i], out[i]), 4u)
          << LevelName(level) << " sigmoid(" << xs[i] << ") = " << out[i]
          << " vs " << ref[i];
    }
    if (level == SimdLevel::kSse2) {
      // SSE2 routes transcendentals to the scalar formulas.
      EwTanh(level, n, xs.data(), out.data());
      EwTanh(SimdLevel::kScalar, n, xs.data(), ref.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ref[i], out[i]);
      }
    }
  }
}

TEST(ElementwiseTest, SoftplusAndReluBitIdenticalAtAllLevels) {
  const std::vector<double> xs = TranscendentalProbe();
  const size_t n = xs.size();
  std::vector<double> ref(n), out(n);
  EwSoftplus(SimdLevel::kScalar, n, xs.data(), ref.data());
  for (SimdLevel level : SupportedLevels()) {
    EwSoftplus(level, n, xs.data(), out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ref[i], out[i]) << LevelName(level) << " softplus";
    }
  }
  EwRelu(SimdLevel::kScalar, n, xs.data(), ref.data());
  for (SimdLevel level : SupportedLevels()) {
    EwRelu(level, n, xs.data(), out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ref[i], out[i]) << LevelName(level) << " relu";
    }
  }
}

// A row of a batched activation matrix starts at an arbitrary offset in the
// flat buffer, so each element's result must not depend on where the buffer
// was split — that is what keeps batched and unbatched serving bit-identical.
TEST(ElementwiseTest, ResultsIndependentOfBufferSplit) {
  const std::vector<double> xs = TranscendentalProbe();
  const size_t n = xs.size();
  std::vector<double> whole(n), split(n);
  for (SimdLevel level : SupportedLevels()) {
    for (size_t cut : {1u, 3u, 5u, 17u}) {
      EwTanh(level, n, xs.data(), whole.data());
      EwTanh(level, cut, xs.data(), split.data());
      EwTanh(level, n - cut, xs.data() + cut, split.data() + cut);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(whole[i], split[i])
            << LevelName(level) << " tanh split at " << cut;
      }
      EwSigmoid(level, n, xs.data(), whole.data());
      EwSigmoid(level, cut, xs.data(), split.data());
      EwSigmoid(level, n - cut, xs.data() + cut, split.data() + cut);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(whole[i], split[i])
            << LevelName(level) << " sigmoid split at " << cut;
      }
    }
  }
}

// ------------------------------------------------------ fused LSTM cell ---

struct LstmFixture {
  size_t batch;
  size_t hidden;
  Matrix gates;   // batch x 4H, x * W_x
  Matrix c_prev;  // batch x H
  Matrix hw;      // batch x 4H, h * W_h
  Matrix bias;    // 1 x 4H
};

LstmFixture MakeLstmFixture(size_t batch, size_t hidden, uint64_t seed) {
  LstmFixture f{batch,
                hidden,
                Matrix(batch, 4 * hidden),
                Matrix(batch, hidden),
                Matrix(batch, 4 * hidden),
                Matrix(1, 4 * hidden)};
  Rng rng(seed);
  FillUniform(&f.gates, &rng, -3.0, 3.0);
  FillUniform(&f.c_prev, &rng, -1.5, 1.5);
  FillUniform(&f.hw, &rng, -1.0, 1.0);
  FillUniform(&f.bias, &rng, -0.5, 0.5);
  return f;
}

TEST(LstmKernelTest, ForwardMatchesScalarWithinBound) {
  for (size_t hidden : {1u, 3u, 4u, 6u, 11u}) {
    LstmFixture f = MakeLstmFixture(5, hidden, 0x77 + hidden);
    Matrix act_ref = f.gates;
    Matrix h_ref(f.batch, hidden), c_ref(f.batch, hidden);
    Matrix tc_ref(f.batch, hidden);
    LstmCellForward(SimdLevel::kScalar, f.batch, hidden, act_ref.data(),
                    f.hw.data(), f.bias.data(), f.c_prev.data(), hidden,
                    h_ref.data(), hidden, c_ref.data(), hidden,
                    tc_ref.data());
    for (SimdLevel level : SupportedLevels()) {
      Matrix act = f.gates;
      Matrix h(f.batch, hidden), c(f.batch, hidden), tc(f.batch, hidden);
      LstmCellForward(level, f.batch, hidden, act.data(), f.hw.data(),
                      f.bias.data(), f.c_prev.data(), hidden, h.data(),
                      hidden, c.data(), hidden, tc.data());
      for (size_t i = 0; i < act.size(); ++i) {
        EXPECT_LE(UlpDistance(act_ref[i], act[i]), 4u)
            << LevelName(level) << " activated gate " << i;
      }
      // c and h combine few-ULP-different gate values with plain mul/add;
      // a loose relative envelope keeps the bound condition-aware without
      // re-deriving per-element error terms.
      for (size_t i = 0; i < c.size(); ++i) {
        EXPECT_NEAR(c_ref[i], c[i], 1e-12 * (1.0 + std::fabs(c_ref[i])))
            << LevelName(level) << " c[" << i << "]";
        EXPECT_NEAR(h_ref[i], h[i], 1e-12 * (1.0 + std::fabs(h_ref[i])))
            << LevelName(level) << " h[" << i << "]";
        EXPECT_NEAR(tc_ref[i], tc[i], 1e-12)
            << LevelName(level) << " tanh_c[" << i << "]";
      }
    }
  }
}

TEST(LstmKernelTest, ForwardRowsIndependentOfBatchSize) {
  const size_t hidden = 7;
  LstmFixture f = MakeLstmFixture(4, hidden, 0x31337);
  for (SimdLevel level : SupportedLevels()) {
    Matrix act_full = f.gates;
    Matrix h_full(f.batch, hidden), c_full(f.batch, hidden);
    LstmCellForward(level, f.batch, hidden, act_full.data(), f.hw.data(),
                    f.bias.data(), f.c_prev.data(), hidden, h_full.data(),
                    hidden, c_full.data(), hidden, nullptr);
    for (size_t r = 0; r < f.batch; ++r) {
      Matrix act_row(1, 4 * hidden);
      Matrix hw_row(1, 4 * hidden);
      Matrix cp_row(1, hidden);
      for (size_t j = 0; j < 4 * hidden; ++j) {
        act_row(0, j) = f.gates(r, j);
        hw_row(0, j) = f.hw(r, j);
      }
      for (size_t j = 0; j < hidden; ++j) {
        cp_row(0, j) = f.c_prev(r, j);
      }
      Matrix h_row(1, hidden), c_row(1, hidden);
      LstmCellForward(level, 1, hidden, act_row.data(), hw_row.data(),
                      f.bias.data(), cp_row.data(), hidden, h_row.data(),
                      hidden, c_row.data(), hidden, nullptr);
      for (size_t j = 0; j < hidden; ++j) {
        EXPECT_EQ(h_full(r, j), h_row(0, j))
            << LevelName(level) << " h row " << r;
        EXPECT_EQ(c_full(r, j), c_row(0, j))
            << LevelName(level) << " c row " << r;
      }
    }
  }
}

/// Equal bit patterns, or NaN on both sides (a NaN's payload is not part
/// of the kernel contract).
bool SameValue(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b);
  }
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(LstmKernelTest, FusedBiasAddEqualsAddThenKernel) {
  // The kernel forms (xW_x + hW_h) + b in registers. Feeding it the
  // pre-added gates with hW_h = b = -0.0 runs the same activation code on
  // exactly the pre-activations (v + -0.0 == v for every v, signed zeros,
  // infinities and NaN included), i.e. "add, then the old kernel".
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t hidden : {1u, 3u, 4u, 5u, 18u, 32u}) {
    const size_t batch = 3;
    LstmFixture f = MakeLstmFixture(batch, hidden, 0x5EED + hidden);
    // Specials on every gate block of row 1: a NaN from each operand, both
    // infinities, Inf + -Inf, overflow to Inf, and signed zeros.
    const size_t gw = 4 * hidden;
    const size_t cols[] = {0, hidden, 2 * hidden, 3 * hidden};
    for (size_t k = 0; k < 4; ++k) {
      const size_t c = cols[k];
      switch (k) {
        case 0:
          f.gates(1, c) = nan;
          break;
        case 1:
          f.hw(1, c) = inf;
          break;
        case 2:
          f.gates(1, c) = inf;
          f.hw(1, c) = -inf;
          break;
        case 3:
          f.gates(1, c) = std::numeric_limits<double>::max();
          f.hw(1, c) = std::numeric_limits<double>::max();
          break;
      }
    }
    f.gates(2, gw - 1) = -0.0;
    f.hw(2, gw - 1) = -0.0;
    f.bias(0, gw - 1) = -0.0;
    f.bias(0, 0) = -inf;
    f.c_prev(0, hidden - 1) = nan;
    Matrix pre(batch, gw);
    for (size_t r = 0; r < batch; ++r) {
      for (size_t c = 0; c < gw; ++c) {
        pre(r, c) = (f.gates(r, c) + f.hw(r, c)) + f.bias(0, c);
      }
    }
    const std::vector<double> neg_zero(batch * gw, -0.0);
    for (SimdLevel level : SupportedLevels()) {
      Matrix act = f.gates;
      Matrix h(batch, hidden), c(batch, hidden), tc(batch, hidden);
      LstmCellForward(level, batch, hidden, act.data(), f.hw.data(),
                      f.bias.data(), f.c_prev.data(), hidden, h.data(),
                      hidden, c.data(), hidden, tc.data());
      Matrix act_ref = pre;
      Matrix h_ref(batch, hidden), c_ref(batch, hidden);
      Matrix tc_ref(batch, hidden);
      LstmCellForward(level, batch, hidden, act_ref.data(), neg_zero.data(),
                      neg_zero.data(), f.c_prev.data(), hidden,
                      h_ref.data(), hidden, c_ref.data(), hidden,
                      tc_ref.data());
      for (size_t i = 0; i < act.size(); ++i) {
        EXPECT_TRUE(SameValue(act_ref[i], act[i]))
            << LevelName(level) << " H=" << hidden << " gate " << i << ": "
            << act_ref[i] << " vs " << act[i];
      }
      for (size_t i = 0; i < h.size(); ++i) {
        EXPECT_TRUE(SameValue(h_ref[i], h[i]))
            << LevelName(level) << " H=" << hidden << " h " << i;
        EXPECT_TRUE(SameValue(c_ref[i], c[i]))
            << LevelName(level) << " H=" << hidden << " c " << i;
        EXPECT_TRUE(SameValue(tc_ref[i], tc[i]))
            << LevelName(level) << " H=" << hidden << " tanh_c " << i;
      }
      // The specials propagate: NaN and Inf - Inf give a NaN input gate,
      // +Inf saturates the forget gate, and the NaN cell state poisons
      // its own column only.
      EXPECT_TRUE(std::isnan(act(1, 0))) << LevelName(level);
      EXPECT_EQ(1.0, act(1, hidden)) << LevelName(level);
      EXPECT_TRUE(std::isnan(act(1, 2 * hidden))) << LevelName(level);
      EXPECT_TRUE(std::isnan(c(0, hidden - 1))) << LevelName(level);
    }
  }
}

TEST(LstmKernelTest, ForwardUpdatesCellStateInPlace) {
  const size_t batch = 5, hidden = 18;
  LstmFixture f = MakeLstmFixture(batch, hidden, 0x1D);
  for (SimdLevel level : SupportedLevels()) {
    Matrix act = f.gates;
    Matrix h(batch, hidden), c(batch, hidden);
    LstmCellForward(level, batch, hidden, act.data(), f.hw.data(),
                    f.bias.data(), f.c_prev.data(), hidden, h.data(), hidden,
                    c.data(), hidden, nullptr);
    Matrix act_in_place = f.gates;
    Matrix h_in_place(batch, hidden);
    Matrix c_in_place = f.c_prev;
    LstmCellForward(level, batch, hidden, act_in_place.data(), f.hw.data(),
                    f.bias.data(), c_in_place.data(), hidden,
                    h_in_place.data(), hidden, c_in_place.data(), hidden,
                    nullptr);
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(c[i], c_in_place[i]) << LevelName(level) << " c " << i;
      EXPECT_EQ(h[i], h_in_place[i]) << LevelName(level) << " h " << i;
    }
  }
}

TEST(LstmKernelTest, BackwardBitIdenticalAcrossLevels) {
  const size_t batch = 4, hidden = 6;
  LstmFixture f = MakeLstmFixture(batch, hidden, 0xABCD);
  // Activate the gates once at the scalar level so every backward call sees
  // identical inputs.
  Matrix act = f.gates;
  Matrix h(batch, hidden), c(batch, hidden), tc(batch, hidden);
  LstmCellForward(SimdLevel::kScalar, batch, hidden, act.data(),
                  f.hw.data(), f.bias.data(), f.c_prev.data(), hidden,
                  h.data(), hidden, c.data(), hidden, tc.data());
  Rng rng(0xEF);
  Matrix dh(batch, hidden), dc(batch, hidden);
  FillUniform(&dh, &rng, -1.0, 1.0);
  FillUniform(&dc, &rng, -1.0, 1.0);

  Matrix dgates_ref(batch, 4 * hidden), dcp_ref(batch, hidden);
  LstmCellBackward(SimdLevel::kScalar, batch, hidden, act.data(),
                   f.c_prev.data(), hidden, tc.data(), dh.data(), hidden,
                   dc.data(), hidden, dgates_ref.data(), dcp_ref.data());
  for (SimdLevel level : SupportedLevels()) {
    Matrix dgates(batch, 4 * hidden), dcp(batch, hidden);
    LstmCellBackward(level, batch, hidden, act.data(), f.c_prev.data(),
                     hidden, tc.data(), dh.data(), hidden, dc.data(), hidden,
                     dgates.data(), dcp.data());
    for (size_t i = 0; i < dgates.size(); ++i) {
      EXPECT_EQ(dgates_ref[i], dgates[i])
          << LevelName(level) << " dgates[" << i << "]";
    }
    for (size_t i = 0; i < dcp.size(); ++i) {
      EXPECT_EQ(dcp_ref[i], dcp[i])
          << LevelName(level) << " dc_prev[" << i << "]";
    }
  }
}

// ------------------------------------------- fused LSTM step on the tape ---

// Replicates the pre-kernel-layer LstmCell::Step graph op for op; at the
// scalar level the fused step must reproduce its values and parameter
// gradients bit-for-bit.
autodiff::Var UnfusedLstmStep(autodiff::Tape* tape, autodiff::Var x,
                              autodiff::Var h_prev, autodiff::Var c_prev,
                              autodiff::Parameter* wx, autodiff::Parameter* wh,
                              autodiff::Parameter* b, size_t hidden,
                              autodiff::Var* c_out) {
  using autodiff::Var;
  Var gates = tape->AddRowBroadcast(
      tape->Add(tape->MatMul(x, tape->Bind(wx)),
                tape->MatMul(h_prev, tape->Bind(wh))),
      tape->Bind(b));
  Var i = tape->Sigmoid(tape->SliceCols(gates, 0, hidden));
  Var f = tape->Sigmoid(tape->SliceCols(gates, hidden, 2 * hidden));
  Var g = tape->Tanh(tape->SliceCols(gates, 2 * hidden, 3 * hidden));
  Var o = tape->Sigmoid(tape->SliceCols(gates, 3 * hidden, 4 * hidden));
  Var c = tape->Add(tape->Mul(f, c_prev), tape->Mul(i, g));
  *c_out = c;
  return tape->Mul(o, tape->Tanh(c));
}

TEST(FusedLstmTapeTest, ScalarValuesAndGradsBitIdenticalToUnfusedReference) {
  ScopedSimdLevel scalar_only(SimdLevel::kScalar);
  using autodiff::Parameter;
  using autodiff::Tape;
  using autodiff::Var;

  const size_t in_dim = 3, hidden = 4, batch = 2, unroll = 3;
  Rng init(0x515);
  nn::LstmCell cell(in_dim, hidden, &init);
  std::vector<Parameter*> cell_params = cell.Params();
  ASSERT_EQ(3u, cell_params.size());
  // Reference copies of (w_x, w_h, b), matched by shape.
  Parameter wx(cell_params[0]->value);
  Parameter wh(cell_params[1]->value);
  Parameter b(cell_params[2]->value);
  ASSERT_EQ(in_dim, wx.value.rows());
  ASSERT_EQ(hidden, wh.value.rows());
  ASSERT_EQ(1u, b.value.rows());

  Rng data_rng(0x7777);
  std::vector<Matrix> inputs;
  for (size_t t = 0; t < unroll; ++t) {
    Matrix x(batch, in_dim);
    FillUniform(&x, &data_rng, -1.0, 1.0);
    inputs.push_back(std::move(x));
  }

  // Fused graph (the production LstmCell::Step).
  cell.ZeroGrads();
  Tape fused_tape;
  nn::LstmCell::State state = cell.ZeroState(&fused_tape, batch);
  for (size_t t = 0; t < unroll; ++t) {
    Var x = fused_tape.Input(batch, in_dim);
    Matrix& xm = *fused_tape.MutableValue(x);
    for (size_t i = 0; i < xm.size(); ++i) {
      xm[i] = inputs[t][i];
    }
    state = cell.Step(&fused_tape, x, state);
  }
  Var fused_loss = fused_tape.Add(
      fused_tape.Sum(fused_tape.Mul(state.h, state.h)),
      fused_tape.Sum(state.c));
  fused_tape.Backward(fused_loss);

  // Unfused legacy reference graph.
  Tape ref_tape;
  Var h = ref_tape.Zeros(batch, hidden);
  Var c = ref_tape.Zeros(batch, hidden);
  for (size_t t = 0; t < unroll; ++t) {
    Var x = ref_tape.Input(batch, in_dim);
    Matrix& xm = *ref_tape.MutableValue(x);
    for (size_t i = 0; i < xm.size(); ++i) {
      xm[i] = inputs[t][i];
    }
    Var c_next;
    h = UnfusedLstmStep(&ref_tape, x, h, c, &wx, &wh, &b, hidden, &c_next);
    c = c_next;
  }
  Var ref_loss = ref_tape.Add(ref_tape.Sum(ref_tape.Mul(h, h)),
                              ref_tape.Sum(c));
  ref_tape.Backward(ref_loss);

  // Forward values and loss must agree bit-for-bit.
  EXPECT_EQ(ref_loss.value()(0, 0), fused_loss.value()(0, 0));
  for (size_t i = 0; i < state.h.value().size(); ++i) {
    EXPECT_EQ(h.value()[i], state.h.value()[i]) << "h[" << i << "]";
    EXPECT_EQ(c.value()[i], state.c.value()[i]) << "c[" << i << "]";
  }
  // Parameter gradients must agree bit-for-bit.
  const Parameter* refs[] = {&wx, &wh, &b};
  for (size_t p = 0; p < 3; ++p) {
    const Matrix& got = cell_params[p]->grad;
    const Matrix& want = refs[p]->grad;
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i], got[i]) << "param " << p << " grad[" << i << "]";
    }
  }
}

// --------------------------------------------------- train-loop parity ---

nn::TrainSummary RunTinyLstmTraining(SimdLevel level) {
  ScopedSimdLevel scoped(level);
  using autodiff::Tape;
  using autodiff::Var;

  Rng init(7);
  nn::LstmCell cell(1, 6, &init);
  nn::Dense head(6, 1, nn::Dense::Activation::kNone, &init);
  std::vector<autodiff::Parameter*> params;
  for (auto* p : cell.Params()) {
    params.push_back(p);
  }
  for (auto* p : head.Params()) {
    params.push_back(p);
  }

  const size_t batch = 4, unroll = 6;
  auto loss_fn = [&](Tape* tape, Rng* /*rng*/) -> Var {
    // Fixed full-batch sine-prediction data: deterministic across levels.
    nn::LstmCell::State state = cell.ZeroState(tape, batch);
    Var loss;
    for (size_t t = 0; t < unroll; ++t) {
      Var x = tape->Input(batch, 1);
      Var y = tape->Input(batch, 1);
      Matrix& xm = *tape->MutableValue(x);
      Matrix& ym = *tape->MutableValue(y);
      for (size_t r = 0; r < batch; ++r) {
        const double phase = 0.7 * static_cast<double>(r);
        xm(r, 0) = std::sin(0.4 * static_cast<double>(t) + phase);
        ym(r, 0) = std::sin(0.4 * static_cast<double>(t + 1) + phase);
      }
      state = cell.Step(tape, x, state);
      Var mse = nn::MseLoss(tape, head.Forward(tape, state.h), y);
      loss = t == 0 ? mse : tape->Add(loss, mse);
    }
    return tape->Scale(loss, 1.0 / static_cast<double>(unroll));
  };

  nn::TrainConfig config;
  config.steps = 40;
  config.lr = 1e-2;
  config.record_loss = true;
  return nn::TrainLoop(config, params, loss_fn);
}

TEST(TrainLoopParityTest, FinalLossAgreesAcrossLevelsAndArenaStaysFlat) {
  const nn::TrainSummary base = RunTinyLstmTraining(SimdLevel::kScalar);
  ASSERT_FALSE(base.loss_history.empty());
  // The model must actually learn, and the tape arena must stop allocating
  // after the first (warmup) step — the O(1)-allocation property.
  EXPECT_LT(base.final_loss, base.loss_history.front());
  EXPECT_EQ(base.arena_allocs_after_warmup, base.arena_allocs_final);
  for (SimdLevel level : SupportedLevels()) {
    if (level == SimdLevel::kScalar) {
      continue;
    }
    const nn::TrainSummary run = RunTinyLstmTraining(level);
    EXPECT_NEAR(base.final_loss, run.final_loss, 1e-6)
        << "final loss diverged at level " << LevelName(level);
    EXPECT_EQ(run.arena_allocs_after_warmup, run.arena_allocs_final)
        << "steady-state allocation at level " << LevelName(level);
  }
}

// ---------------------------------------------------- parallel drivers ---

/// Restores the environment/hardware thread default on scope exit.
class ThreadOverrideGuard {
 public:
  ~ThreadOverrideGuard() { SetRpasThreads(0); }
};

TEST(ParallelKernelTest, GrainCostModelIsShapeOnly) {
  ThreadOverrideGuard guard;
  // Below the flop threshold: one chunk covering the whole range, which
  // ParallelFor runs serially on the calling thread.
  EXPECT_EQ(8u, GemmRowGrain(8, 8, 8));
  EXPECT_EQ(1u, GemmRowGrain(1, 1, 1));
  EXPECT_EQ(4u, LstmRowGrain(4, 8));
  // Above it: the fixed row grain, never derived from the thread count.
  EXPECT_EQ(16u, GemmRowGrain(512, 64, 64));
  EXPECT_EQ(8u, LstmRowGrain(512, 64));
  for (int threads : {1, 2, 8}) {
    SetRpasThreads(threads);
    EXPECT_EQ(16u, GemmRowGrain(512, 64, 64)) << threads << " threads";
    EXPECT_EQ(8u, GemmRowGrain(8, 8, 8)) << threads << " threads";
    EXPECT_EQ(8u, LstmRowGrain(512, 64)) << threads << " threads";
  }
}

TEST(ParallelKernelTest, GemmBitIdenticalAcrossThreadCountsAtEveryLevel) {
  ThreadOverrideGuard guard;
  Rng rng(0xFEED);
  // Big enough that 2*m*n*k clears the cost-model threshold, so the
  // parallel row-panel path genuinely engages; ragged in every dimension.
  Matrix a(130, 70);
  Matrix b(70, 91);
  FillUniform(&a, &rng, -2.0, 2.0);
  FillUniform(&b, &rng, -2.0, 2.0);
  ASSERT_EQ(16u, GemmRowGrain(a.rows(), b.cols(), a.cols()));
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    SetRpasThreads(1);
    Matrix ref(a.rows(), b.cols());
    MatMulInto(a, b, &ref);
    for (int threads : {2, 8}) {
      SetRpasThreads(threads);
      Matrix c(a.rows(), b.cols());
      MatMulInto(a, b, &c);
      for (size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(ref[i], c[i])
            << LevelName(level) << " gemm diverged at flat index " << i
            << " with " << threads << " threads";
      }
    }
  }
}

TEST(ParallelKernelTest, NarrowGemmBitIdenticalToScalarRowsAtEveryLevel) {
  // Gemm's fixed n < 8 path keeps each row's running sums in registers; it
  // must equal the memory-accumulating GemmRowsScalar bit for bit, across
  // the kBlockK = 64 boundary, with strided operands, accumulating into a
  // non-zero C, at every level and thread count.
  ThreadOverrideGuard guard;
  Rng rng(0xA11);
  const size_t m = 1501;  // tiles of four plus a tail row
  for (size_t n : {1u, 2u, 7u}) {
    for (size_t k : {1u, 32u, 65u, 130u}) {
      const size_t lda = k + 2, ldb = n + 1, ldc = n + 3;
      std::vector<double> a(m * lda), b(k * ldb), c0(m * ldc);
      for (double& v : a) v = rng.Uniform(-2.0, 2.0);
      for (double& v : b) v = rng.Uniform(-2.0, 2.0);
      for (double& v : c0) v = rng.Uniform(-1.0, 1.0);
      std::vector<double> ref = c0;
      GemmRowsScalar(0, m, n, k, a.data(), lda, b.data(), ldb, ref.data(),
                     ldc);
      for (SimdLevel level : SupportedLevels()) {
        for (int threads : {1, 4}) {
          SetRpasThreads(threads);
          std::vector<double> c = c0;
          Gemm(level, m, n, k, a.data(), lda, b.data(), ldb, c.data(), ldc);
          for (size_t i = 0; i < c.size(); ++i) {
            ASSERT_EQ(ref[i], c[i])
                << LevelName(level) << " n=" << n << " k=" << k << " @ " << i
                << " with " << threads << " threads";
          }
        }
      }
    }
  }
}

TEST(ParallelKernelTest, TransposedGemmsBitIdenticalAcrossThreadCounts) {
  ThreadOverrideGuard guard;
  Rng rng(0xD1CE);
  const size_t m = 128, n = 66, k = 97;
  Matrix a_tn(k, m);  // GemmTN reads A as (k x m)
  Matrix a_nt(m, k);
  Matrix b_tn(k, n);
  Matrix b_nt(n, k);  // GemmNT reads B as (n x k)
  FillUniform(&a_tn, &rng, -2.0, 2.0);
  FillUniform(&a_nt, &rng, -2.0, 2.0);
  FillUniform(&b_tn, &rng, -2.0, 2.0);
  FillUniform(&b_nt, &rng, -2.0, 2.0);
  ASSERT_EQ(16u, GemmRowGrain(m, n, k));
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    SetRpasThreads(1);
    Matrix tn_ref(m, n), nt_ref(m, n);
    GemmTN(ActiveLevel(), m, n, k, a_tn.data(), m, b_tn.data(), n,
           tn_ref.data(), n);
    GemmNT(ActiveLevel(), m, n, k, a_nt.data(), k, b_nt.data(), k,
           nt_ref.data(), n);
    for (int threads : {2, 8}) {
      SetRpasThreads(threads);
      Matrix tn(m, n), nt(m, n);
      GemmTN(ActiveLevel(), m, n, k, a_tn.data(), m, b_tn.data(), n,
             tn.data(), n);
      GemmNT(ActiveLevel(), m, n, k, a_nt.data(), k, b_nt.data(), k,
             nt.data(), n);
      for (size_t i = 0; i < tn.size(); ++i) {
        ASSERT_EQ(tn_ref[i], tn[i])
            << LevelName(level) << " GemmTN diverged at " << i << " with "
            << threads << " threads";
        ASSERT_EQ(nt_ref[i], nt[i])
            << LevelName(level) << " GemmNT diverged at " << i << " with "
            << threads << " threads";
      }
    }
  }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/// The AVX2 GemmNT before it went four columns per pass, kept as the
/// reference: one output element at a time, one 4-lane FMA accumulator over
/// the full k-chunks, the fixed (v0 + v2) + (v1 + v3) reduction, then a
/// scalar fma tail.
__attribute__((target("avx2,fma"))) void GemmNTOneColumnAvx2(
    size_t m, size_t n, size_t k, const double* a, size_t lda,
    const double* b, size_t ldb, double* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * lda;
    for (size_t j = 0; j < n; ++j) {
      const double* b_row = b + j * ldb;
      __m256d acc = _mm256_setzero_pd();
      size_t p = 0;
      for (; p + 4 <= k; p += 4) {
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(a_row + p),
                              _mm256_loadu_pd(b_row + p), acc);
      }
      const __m128d half = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                      _mm256_extractf128_pd(acc, 1));
      double s = _mm_cvtsd_f64(_mm_add_sd(half, _mm_unpackhi_pd(half, half)));
      for (; p < k; ++p) {
        s = std::fma(a_row[p], b_row[p], s);
      }
      c[i * ldc + j] += s;
    }
  }
}
#endif

/// GemmNT's scalar level: one dot product per element, ascending p.
void GemmNTOneColumnScalar(size_t m, size_t n, size_t k, const double* a,
                           size_t lda, const double* b, size_t ldb, double* c,
                           size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double s = c[i * ldc + j];
      for (size_t p = 0; p < k; ++p) {
        s += a[i * lda + p] * b[j * ldb + p];
      }
      c[i * ldc + j] = s;
    }
  }
}

TEST(ParallelKernelTest, GemmNTBitIdenticalToOneColumnReference) {
  // GemmNT computes four output columns per pass; each element must still
  // follow the single-column sequence bit for bit. Random small shapes
  // cover every n % 4 and k % 4 tail, plus rows wide enough to clear the
  // parallel threshold; operands are strided and C accumulates.
  ThreadOverrideGuard guard;
  Rng rng(0x47E3);
  struct Shape {
    size_t m, n, k;
  };
  std::vector<Shape> shapes;
  for (int i = 0; i < 200; ++i) {
    shapes.push_back({1 + rng.UniformInt(9), 1 + rng.UniformInt(37),
                      1 + rng.UniformInt(130)});
  }
  shapes.push_back({64, 37, 130});
  shapes.push_back({96, 33, 129});
  for (const Shape& s : shapes) {
    const size_t lda = s.k + 3, ldb = s.k + 5, ldc = s.n + 2;
    std::vector<double> a(s.m * lda), b(s.n * ldb), c0(s.m * ldc);
    for (double& v : a) v = rng.Uniform(-2.0, 2.0);
    for (double& v : b) v = rng.Uniform(-2.0, 2.0);
    for (double& v : c0) v = rng.Uniform(-2.0, 2.0);
    for (SimdLevel level : SupportedLevels()) {
      std::vector<double> want = c0;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
      if (level == SimdLevel::kAvx2) {
        GemmNTOneColumnAvx2(s.m, s.n, s.k, a.data(), lda, b.data(), ldb,
                            want.data(), ldc);
      } else {
        GemmNTOneColumnScalar(s.m, s.n, s.k, a.data(), lda, b.data(), ldb,
                              want.data(), ldc);
      }
#else
      GemmNTOneColumnScalar(s.m, s.n, s.k, a.data(), lda, b.data(), ldb,
                            want.data(), ldc);
#endif
      for (int threads : {1, 4}) {
        SetRpasThreads(threads);
        std::vector<double> got = c0;
        GemmNT(level, s.m, s.n, s.k, a.data(), lda, b.data(), ldb, got.data(),
               ldc);
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(want[i], got[i])
              << LevelName(level) << " " << s.m << "x" << s.n << "x" << s.k
              << " at " << i << " with " << threads << " threads";
        }
      }
    }
  }
}

TEST(ParallelKernelTest, LstmCellBitIdenticalAcrossThreadCounts) {
  ThreadOverrideGuard guard;
  Rng rng(0x1234);
  const size_t batch = 96, hidden = 64;
  ASSERT_EQ(8u, LstmRowGrain(batch, hidden));
  std::vector<double> gates0(batch * 4 * hidden);
  std::vector<double> c_prev(batch * hidden);
  std::vector<double> dh(batch * hidden), dc(batch * hidden);
  std::vector<double> hw(batch * 4 * hidden), bias(4 * hidden);
  for (double& v : gates0) v = rng.Uniform(-2.0, 2.0);
  for (double& v : c_prev) v = rng.Uniform(-1.0, 1.0);
  for (double& v : dh) v = rng.Uniform(-1.0, 1.0);
  for (double& v : dc) v = rng.Uniform(-1.0, 1.0);
  for (double& v : hw) v = rng.Uniform(-1.0, 1.0);
  for (double& v : bias) v = rng.Uniform(-0.5, 0.5);
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    struct Run {
      std::vector<double> act, h, c, tanh_c, dgates, dc_prev;
    };
    auto run_at = [&](int threads) {
      SetRpasThreads(threads);
      Run r;
      r.act = gates0;
      r.h.assign(batch * hidden, 0.0);
      r.c.assign(batch * hidden, 0.0);
      r.tanh_c.assign(batch * hidden, 0.0);
      r.dgates.assign(batch * 4 * hidden, 0.0);
      r.dc_prev.assign(batch * hidden, 0.0);
      LstmCellForward(ActiveLevel(), batch, hidden, r.act.data(), hw.data(),
                      bias.data(), c_prev.data(), hidden, r.h.data(), hidden,
                      r.c.data(), hidden, r.tanh_c.data());
      LstmCellBackward(ActiveLevel(), batch, hidden, r.act.data(),
                       c_prev.data(), hidden, r.tanh_c.data(), dh.data(),
                       hidden, dc.data(), hidden, r.dgates.data(),
                       r.dc_prev.data());
      return r;
    };
    const Run ref = run_at(1);
    for (int threads : {2, 8}) {
      const Run got = run_at(threads);
      for (size_t i = 0; i < ref.h.size(); ++i) {
        ASSERT_EQ(ref.h[i], got.h[i]) << LevelName(level) << " h @ " << i;
        ASSERT_EQ(ref.c[i], got.c[i]) << LevelName(level) << " c @ " << i;
        ASSERT_EQ(ref.dc_prev[i], got.dc_prev[i])
            << LevelName(level) << " dc_prev @ " << i;
      }
      for (size_t i = 0; i < ref.dgates.size(); ++i) {
        ASSERT_EQ(ref.act[i], got.act[i]) << LevelName(level) << " act @ " << i;
        ASSERT_EQ(ref.dgates[i], got.dgates[i])
            << LevelName(level) << " dgates @ " << i;
      }
    }
  }
}

}  // namespace
}  // namespace rpas::tensor::kernels
