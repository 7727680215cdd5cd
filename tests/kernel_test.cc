#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
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

TEST(KernelDispatchTest, SupportedLevelsAscendFromScalar) {
  const std::vector<SimdLevel> got = SupportedLevels();
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(SimdLevel::kScalar, got.front());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(KernelDispatchTest, LevelNames) {
  EXPECT_STREQ("scalar", LevelName(SimdLevel::kScalar));
  EXPECT_STREQ("avx2", LevelName(SimdLevel::kAvx2));
  EXPECT_STREQ("avx512", LevelName(SimdLevel::kAvx512));
}

// The default level comes from this process's RPAS_SIMD: a level's name
// pins that level, capped at the best supported one, and unset or any
// other value gives the best supported level, the last of
// SupportedLevels(). ctest also runs this under RPAS_SIMD=sse2, which names
// no level and must be ignored with a warning, and under RPAS_SIMD=avx512,
// which must parse.
TEST(KernelDispatchTest, ActiveLevelFollowsRpasSimd) {
  const char* env = std::getenv("RPAS_SIMD");
  const SimdLevel best = SupportedLevels().back();
  SimdLevel want = best;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (env != nullptr && std::strcmp(env, LevelName(level)) == 0) {
      want = std::min(level, best);
    }
  }
  EXPECT_EQ(want, ActiveLevel())
      << "RPAS_SIMD=" << (env != nullptr ? env : "(unset)");
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
    // A request above what the machine runs gets the highest supported
    // level at or below it: avx512 runs as avx2 on an AVX2-only host.
    ScopedSimdLevel top(SimdLevel::kAvx512);
    EXPECT_EQ(SupportedLevels().back(), ActiveLevel());
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
// 37 rows are two 16-row blocks and a 5-row tail.
TEST(GemmParityTest, RowResultsIndependentOfBatchSize) {
  Rng rng(0xFEED);
  const size_t m = 37, k = 13, n = 9;
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

// ------------------------------------------------------- quantized GEMM ---

// Shapes straddling the 64-value q8 block (partial single block, exact
// block, partial second block, multiple blocks), plus one taller than a
// 16-row GEMM block.
const GemmShape kQuantShapes[] = {
    {1, 1, 1},   {3, 13, 9},  {5, 63, 7},   {4, 64, 8},
    {7, 65, 16}, {2, 100, 5}, {6, 200, 33}, {40, 200, 33},
};

// GemmQuant is decode + Gemm: for every storage dtype and level it must
// equal an explicit DecodePayload followed by Gemm at the same level, bit
// for bit, accumulating into a prefilled C.
TEST(GemmQuantTest, BitIdenticalToDecodePlusGemmAndAccumulates) {
  Rng rng(0x0FF);
  for (const GemmShape& s : kQuantShapes) {
    Matrix a(s.m, s.k);
    Matrix w(s.k, s.n);
    Matrix prefill(s.m, s.n);
    FillUniform(&a, &rng, -2.0, 2.0);
    FillUniform(&w, &rng, -2.0, 2.0);
    FillUniform(&prefill, &rng, -1.0, 1.0);
    for (DType dtype : {DType::kQ8, DType::kF16, DType::kF32}) {
      std::vector<uint8_t> payload(PayloadBytes(dtype, w.size()));
      EncodePayload(dtype, w.data(), w.size(), payload.data());
      Matrix decoded(s.k, s.n);
      DecodePayload(dtype, payload.data(), decoded.size(), decoded.data());
      for (SimdLevel level : SupportedLevels()) {
        Matrix expected = prefill;
        Gemm(level, s.m, s.n, s.k, a.data(), s.k, decoded.data(), s.n,
             expected.data(), s.n);
        Matrix c = prefill;
        GemmQuant(level, s.m, s.n, s.k, a.data(), s.k, dtype, payload.data(),
                  c.data(), s.n);
        for (size_t i = 0; i < c.size(); ++i) {
          ASSERT_EQ(expected[i], c[i])
              << DTypeName(dtype) << " " << LevelName(level) << " " << s.m
              << "x" << s.k << "x" << s.n << " flat index " << i;
        }
      }
    }
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

// ------------------------------------------------------ fused LSTM step ---

/// One LSTM step's inputs: x (batch x in_dim), h_prev and c_prev
/// (batch x H), W_x (in_dim x 4H), W_h (H x 4H) and the bias (1 x 4H).
struct LstmFixture {
  size_t batch;
  size_t in_dim;
  size_t hidden;
  Matrix x, h, c_prev, wx, wh, bias;
};

LstmFixture MakeLstmFixture(size_t batch, size_t in_dim, size_t hidden,
                            uint64_t seed) {
  const size_t gw = 4 * hidden;
  LstmFixture f{batch,
                in_dim,
                hidden,
                Matrix(batch, in_dim),
                Matrix(batch, hidden),
                Matrix(batch, hidden),
                Matrix(in_dim, gw),
                Matrix(hidden, gw),
                Matrix(1, gw)};
  Rng rng(seed);
  FillUniform(&f.x, &rng, -1.0, 1.0);
  FillUniform(&f.h, &rng, -1.0, 1.0);
  FillUniform(&f.c_prev, &rng, -1.5, 1.5);
  FillUniform(&f.wx, &rng, -1.0, 1.0);
  FillUniform(&f.wh, &rng, -0.5, 0.5);
  FillUniform(&f.bias, &rng, -0.5, 0.5);
  return f;
}

/// W_x and W_h packed by PackB, as LstmStep reads them.
struct PackedLstm {
  explicit PackedLstm(const LstmFixture& f)
      : wx(PackedSize(f.in_dim, 4 * f.hidden)),
        wh(PackedSize(f.hidden, 4 * f.hidden)) {
    const size_t gw = 4 * f.hidden;
    PackB(f.in_dim, gw, f.wx.data(), gw, wx.data());
    PackB(f.hidden, gw, f.wh.data(), gw, wh.data());
    weights = {f.in_dim, f.hidden, wx.data(), wh.data(), f.bias.data()};
  }
  PackedLstm(const PackedLstm&) = delete;
  PackedLstm& operator=(const PackedLstm&) = delete;

  std::vector<double> wx, wh;
  LstmStepWeights weights;
};

/// A step's outputs: activated gates, h, c and tanh(c).
struct LstmOut {
  Matrix act, h, c, tanh_c;
};

/// LstmStep at `level` into outputs pre-filled with NaN, so every value
/// reported was written by the step: it needs no zero-filled gates.
LstmOut RunStep(SimdLevel level, const LstmFixture& f) {
  const PackedLstm packed(f);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  LstmOut out{Matrix(f.batch, 4 * f.hidden, nan),
              Matrix(f.batch, f.hidden, nan), Matrix(f.batch, f.hidden, nan),
              Matrix(f.batch, f.hidden, nan)};
  LstmStep(level, f.batch, packed.weights, f.x.data(), f.h.data(),
           f.c_prev.data(), f.hidden, out.act.data(), out.h.data(), f.hidden,
           out.c.data(), f.hidden, out.tanh_c.data());
  return out;
}

/// The arithmetic LstmStep replaced: each product by GemmPackedRows into a
/// zero-filled buffer, (x*W_x + h*W_h) + b, EwSigmoid/EwTanh at `level`,
/// then the scalar cell update.
LstmOut ComposedStep(SimdLevel level, const LstmFixture& f) {
  const size_t hd = f.hidden;
  const size_t gw = 4 * hd;
  const PackedLstm packed(f);
  std::vector<double> xw(f.batch * gw, 0.0), hw(f.batch * gw, 0.0);
  GemmPackedRows(level, 0, f.batch, gw, f.in_dim, f.x.data(), f.in_dim,
                 packed.wx.data(), xw.data(), gw);
  GemmPackedRows(level, 0, f.batch, gw, hd, f.h.data(), hd, packed.wh.data(),
                 hw.data(), gw);
  LstmOut out{Matrix(f.batch, gw), Matrix(f.batch, hd), Matrix(f.batch, hd),
              Matrix(f.batch, hd)};
  std::vector<double> pre(gw);
  for (size_t r = 0; r < f.batch; ++r) {
    for (size_t col = 0; col < gw; ++col) {
      pre[col] = (xw[r * gw + col] + hw[r * gw + col]) + f.bias(0, col);
    }
    double* a = &out.act(r, 0);
    EwSigmoid(level, hd, pre.data(), a);
    EwSigmoid(level, hd, pre.data() + hd, a + hd);
    EwTanh(level, hd, pre.data() + 2 * hd, a + 2 * hd);
    EwSigmoid(level, hd, pre.data() + 3 * hd, a + 3 * hd);
    for (size_t j = 0; j < hd; ++j) {
      const double t1 = a[hd + j] * f.c_prev(r, j);
      const double t2 = a[j] * a[2 * hd + j];
      out.c(r, j) = t1 + t2;
    }
    EwTanh(level, hd, &out.c(r, 0), &out.tanh_c(r, 0));
    for (size_t j = 0; j < hd; ++j) {
      out.h(r, j) = a[3 * hd + j] * out.tanh_c(r, j);
    }
  }
  return out;
}

/// Equal bit patterns, or NaN on both sides (a NaN's payload is not part
/// of the kernel contract).
bool SameValue(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b);
  }
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

void ExpectSameStep(const LstmOut& want, const LstmOut& got,
                    const std::string& what) {
  const std::pair<const char*, const Matrix LstmOut::*> parts[] = {
      {"gate", &LstmOut::act},
      {"h", &LstmOut::h},
      {"c", &LstmOut::c},
      {"tanh_c", &LstmOut::tanh_c}};
  for (const auto& [name, member] : parts) {
    const Matrix& w = want.*member;
    const Matrix& g = got.*member;
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_TRUE(SameValue(w[i], g[i]))
          << what << " " << name << "[" << i << "]: " << w[i] << " vs "
          << g[i];
    }
  }
}

/// Rounds every entry to a multiple of 1/scale.
void Dyadic(Matrix* m, double scale) {
  for (size_t i = 0; i < m->size(); ++i) {
    (*m)[i] = std::round((*m)[i] * scale) / scale;
  }
}

TEST(LstmKernelTest, ForwardMatchesScalarWithinBound) {
  for (size_t hidden : {1u, 3u, 4u, 6u, 11u}) {
    LstmFixture f = MakeLstmFixture(5, 5, hidden, 0x77 + hidden);
    // Dyadic inputs make every product and partial sum exact, so FMA and
    // mul-then-add agree and each level feeds the cell the same
    // pre-activations: the bound below is the transcendentals' alone.
    for (Matrix* m : {&f.x, &f.h, &f.c_prev, &f.bias}) {
      Dyadic(m, 64.0);
    }
    Dyadic(&f.wx, 256.0);
    Dyadic(&f.wh, 256.0);
    const LstmOut ref = RunStep(SimdLevel::kScalar, f);
    for (SimdLevel level : SupportedLevels()) {
      const LstmOut got = RunStep(level, f);
      for (size_t i = 0; i < got.act.size(); ++i) {
        EXPECT_LE(UlpDistance(ref.act[i], got.act[i]), 4u)
            << LevelName(level) << " activated gate " << i;
      }
      // c and h combine few-ULP-different gate values with plain mul/add;
      // a loose relative envelope keeps the bound condition-aware without
      // re-deriving per-element error terms.
      for (size_t i = 0; i < got.c.size(); ++i) {
        EXPECT_NEAR(ref.c[i], got.c[i], 1e-12 * (1.0 + std::fabs(ref.c[i])))
            << LevelName(level) << " c[" << i << "]";
        EXPECT_NEAR(ref.h[i], got.h[i], 1e-12 * (1.0 + std::fabs(ref.h[i])))
            << LevelName(level) << " h[" << i << "]";
        EXPECT_NEAR(ref.tanh_c[i], got.tanh_c[i], 1e-12)
            << LevelName(level) << " tanh_c[" << i << "]";
      }
    }
  }
}

TEST(LstmKernelTest, ForwardRowsIndependentOfBatchSize) {
  // Nine rows: two 4-row tiles and a tail row at AVX2; 4H = 28 ends in a
  // 4-column panel and H = 7 in a 3-lane cell group.
  const size_t batch = 9, in_dim = 5, hidden = 7;
  const LstmFixture f = MakeLstmFixture(batch, in_dim, hidden, 0x31337);
  for (SimdLevel level : SupportedLevels()) {
    const LstmOut full = RunStep(level, f);
    for (size_t r = 0; r < batch; ++r) {
      LstmFixture row = f;
      row.batch = 1;
      row.x = Matrix(1, in_dim);
      row.h = Matrix(1, hidden);
      row.c_prev = Matrix(1, hidden);
      for (size_t j = 0; j < in_dim; ++j) {
        row.x(0, j) = f.x(r, j);
      }
      for (size_t j = 0; j < hidden; ++j) {
        row.h(0, j) = f.h(r, j);
        row.c_prev(0, j) = f.c_prev(r, j);
      }
      const LstmOut one = RunStep(level, row);
      for (size_t j = 0; j < 4 * hidden; ++j) {
        EXPECT_EQ(full.act(r, j), one.act(0, j))
            << LevelName(level) << " gate row " << r;
      }
      for (size_t j = 0; j < hidden; ++j) {
        EXPECT_EQ(full.h(r, j), one.h(0, j))
            << LevelName(level) << " h row " << r;
        EXPECT_EQ(full.c(r, j), one.c(0, j))
            << LevelName(level) << " c row " << r;
      }
    }
  }
}

TEST(LstmKernelTest, FusedBiasAddEqualsAddThenKernel) {
  // The step forms (xW_x + hW_h) + b in registers; it must equal the
  // products summed into zero-filled memory, added, then activated, with
  // special values included. Row 1 reads W_x and W_h's first rows exactly
  // (x = 1, h = e_0), which carry a NaN, both infinities, Inf - Inf and an
  // overflow to Inf on the four gate blocks. Row 2's inputs are all -0.0,
  // so its products are signed zeros; in the last g column every weight
  // is positive, so every product there is -0.0 and only a sum started at
  // +0.0, not at the first product, gives +0.0.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double big = std::numeric_limits<double>::max();
  for (size_t hidden : {1u, 3u, 4u, 5u, 18u, 32u}) {
    const size_t batch = 3, in_dim = 1;
    LstmFixture f = MakeLstmFixture(batch, in_dim, hidden, 0x5EED + hidden);
    f.x(1, 0) = 1.0;
    f.x(2, 0) = -0.0;
    for (size_t j = 0; j < hidden; ++j) {
      f.h(1, j) = j == 0 ? 1.0 : 0.0;
      f.h(2, j) = -0.0;
    }
    f.wx(0, 0) = nan;
    f.wh(0, hidden) = inf;
    f.wx(0, 2 * hidden) = inf;
    f.wh(0, 2 * hidden) = -inf;
    f.wx(0, 3 * hidden) = big;
    f.wh(0, 3 * hidden) = big;
    if (hidden > 1) {  // at H = 1 the last g column is the Inf - Inf one
      f.bias(0, 3 * hidden - 1) = -0.0;
      f.wx(0, 3 * hidden - 1) = std::fabs(f.wx(0, 3 * hidden - 1));
      for (size_t p = 0; p < hidden; ++p) {
        f.wh(p, 3 * hidden - 1) = std::fabs(f.wh(p, 3 * hidden - 1));
      }
    }
    f.c_prev(0, hidden - 1) = nan;
    for (SimdLevel level : SupportedLevels()) {
      const std::string what =
          std::string(LevelName(level)) + " H=" + std::to_string(hidden);
      const LstmOut got = RunStep(level, f);
      ExpectSameStep(ComposedStep(level, f), got, what);
      // The specials propagate: a NaN weight poisons its column even
      // through a zero input, +Inf saturates the forget gate, Inf - Inf
      // gives a NaN cell input, overflow saturates the output gate, and
      // the NaN cell state poisons its own column only.
      for (size_t r = 0; r < batch; ++r) {
        EXPECT_TRUE(std::isnan(got.act(r, 0))) << what << " row " << r;
      }
      EXPECT_EQ(1.0, got.act(1, hidden)) << what;
      EXPECT_TRUE(std::isnan(got.act(1, 2 * hidden))) << what;
      EXPECT_EQ(1.0, got.act(1, 3 * hidden)) << what;
      EXPECT_TRUE(std::isnan(got.c(0, hidden - 1))) << what;
      if (hidden > 2) {
        EXPECT_FALSE(std::isnan(got.c(0, 1))) << what;
      }
      if (hidden > 1) {
        // Row 2's last g pre-activation is (0.0 + 0.0) + -0.0 = +0.0. The
        // scalar tanh keeps the sign of a zero; AVX2's gives +0.0 for both.
        const double g2 = got.act(2, 3 * hidden - 1);
        EXPECT_TRUE(g2 == 0.0 && !std::signbit(g2)) << what << " g = " << g2;
      }
    }
  }
}

TEST(LstmKernelTest, StepEqualsZeroFilledComposition) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t rows : {1u, 3u, 4u, 5u, 9u}) {
    for (size_t hidden : {1u, 3u, 7u, 18u, 32u}) {
      const size_t in_dim = 5;
      const uint64_t seed = 0xC0DE + 64 * rows + hidden;
      // Finite inputs with an all-zero last row: -0.0 inputs, so the
      // products in the first g column, whose weights are all positive,
      // are all -0.0, and a -0.0 bias there, where the scalar tanh shows
      // the sign of the zero pre-activation.
      LstmFixture finite = MakeLstmFixture(rows, in_dim, hidden, seed);
      for (size_t j = 0; j < in_dim; ++j) {
        finite.x(rows - 1, j) = -0.0;
        finite.wx(j, 2 * hidden) = std::fabs(finite.wx(j, 2 * hidden));
      }
      for (size_t j = 0; j < hidden; ++j) {
        finite.h(rows - 1, j) = -0.0;
        finite.wh(j, 2 * hidden) = std::fabs(finite.wh(j, 2 * hidden));
      }
      finite.bias(0, 2 * hidden) = -0.0;
      // NaN and infinities in x and h of the first row, and in the last.
      LstmFixture inputs = finite;
      inputs.x(0, 0) = inf;
      inputs.h(0, hidden - 1) = -inf;
      inputs.x(rows - 1, in_dim - 1) = nan;
      // NaN and infinities in the weights and the bias.
      LstmFixture weights = finite;
      weights.wx(in_dim - 1, 0) = nan;
      weights.wh(0, 4 * hidden - 1) = inf;
      weights.wh(hidden - 1, hidden) = -inf;
      weights.bias(0, 2 * hidden) = inf;
      const std::pair<const char*, const LstmFixture*> cases[] = {
          {"finite", &finite}, {"specials in x and h", &inputs},
          {"specials in weights", &weights}};
      for (SimdLevel level : SupportedLevels()) {
        for (const auto& [name, fixture] : cases) {
          ExpectSameStep(ComposedStep(level, *fixture),
                         RunStep(level, *fixture),
                         std::string(LevelName(level)) + " rows=" +
                             std::to_string(rows) +
                             " H=" + std::to_string(hidden) + " " + name);
        }
      }
    }
  }
}

TEST(LstmKernelTest, ForwardUpdatesCellStateInPlace) {
  const size_t batch = 5, in_dim = 5, hidden = 18;
  const LstmFixture f = MakeLstmFixture(batch, in_dim, hidden, 0x1D);
  const PackedLstm packed(f);
  for (SimdLevel level : SupportedLevels()) {
    const LstmOut separate = RunStep(level, f);
    // h and c updated in place, as the sampling roll does.
    std::vector<double> gates(batch * 4 * hidden);
    Matrix h = f.h;
    Matrix c = f.c_prev;
    LstmStep(level, batch, packed.weights, f.x.data(), h.data(), c.data(),
             hidden, gates.data(), h.data(), hidden, c.data(), hidden,
             nullptr);
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(separate.c[i], c[i]) << LevelName(level) << " c " << i;
      EXPECT_EQ(separate.h[i], h[i]) << LevelName(level) << " h " << i;
    }
  }
}

TEST(LstmKernelTest, BackwardBitIdenticalAcrossLevels) {
  const size_t batch = 4, hidden = 6;
  const LstmFixture f = MakeLstmFixture(batch, 5, hidden, 0xABCD);
  // Run the step once at the scalar level so every backward call sees
  // identical inputs.
  const LstmOut fwd = RunStep(SimdLevel::kScalar, f);
  Rng rng(0xEF);
  Matrix dh(batch, hidden), dc(batch, hidden);
  FillUniform(&dh, &rng, -1.0, 1.0);
  FillUniform(&dc, &rng, -1.0, 1.0);

  Matrix dgates_ref(batch, 4 * hidden), dcp_ref(batch, hidden);
  LstmCellBackward(SimdLevel::kScalar, batch, hidden, fwd.act.data(),
                   f.c_prev.data(), hidden, fwd.tanh_c.data(), dh.data(),
                   hidden, dc.data(), hidden, dgates_ref.data(),
                   dcp_ref.data());
  for (SimdLevel level : SupportedLevels()) {
    Matrix dgates(batch, 4 * hidden), dcp(batch, hidden);
    LstmCellBackward(level, batch, hidden, fwd.act.data(), f.c_prev.data(),
                     hidden, fwd.tanh_c.data(), dh.data(), hidden, dc.data(),
                     hidden, dgates.data(), dcp.data());
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

/// True when the two buffers hold the same bytes; otherwise reports the
/// first differing element.
bool SameBytes(const double* want, const double* got, size_t n,
               const std::string& what) {
  for (size_t i = 0; i < n; ++i) {
    if (std::memcmp(&want[i], &got[i], sizeof(double)) != 0) {
      ADD_FAILURE() << what << "[" << i << "]: " << want[i] << " vs "
                    << got[i];
      return false;
    }
  }
  return true;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// The avx512 level is a speed level: its LstmStep must equal avx2's byte for
// byte. Hidden sizes give full 8-lane cell groups (32), a masked 7-lane
// group (7), a row's last 1-4 columns on ymm, masked (1, 18) or four full
// lanes (4, 12, 20, 28, 36), and the 4-wide last panel of an odd H (7, 1);
// row counts give 4-row tiles, tail rows (3, 13, 17, 33) and several 8-row
// blocks. Each case chains three steps, with and without tanh_c, out of
// place and with h and c updated in place. A step from states holding NaNs
// follows. Then, at H 31, 20 and 27, the cell's sigmoid and tanh run on
// chosen values:
// with W_x and W_h zero every pre-activation is (+0.0 + +0.0) + b, the bias
// itself (a -0.0 bias arrives as +0.0), so a step runs sigmoid on the i, f
// and o columns and tanh on the g column of exactly its bias. The bias
// slides H values per step over the probe, so each value passes through all
// four gates. The probe covers infinities, NaNs of both signs with payloads
// (quiet and signalling), subnormals, the small/large tanh branch point
// 0.625, exp's clamps and the inputs whose doubled magnitude reaches them, a
// million uniform values where the polynomials are used, and a million
// random bit patterns.
TEST(LstmKernelTest, Avx512StepBitIdenticalToAvx2) {
  if (!LevelSupported(SimdLevel::kAvx512)) {
    GTEST_SKIP() << "no AVX-512F on this CPU or build";
  }
  constexpr int kSteps = 3;
  for (size_t hidden : {1u, 4u, 7u, 12u, 18u, 20u, 28u, 32u, 36u}) {
    for (size_t rows : {1u, 3u, 6u, 8u, 13u, 17u, 33u, 100u, 128u}) {
      const LstmFixture f = MakeLstmFixture(rows, 5, hidden,
                                            0xA512 + 64 * rows + hidden);
      const PackedLstm packed(f);
      for (bool in_place : {false, true}) {
        for (bool with_tanh_c : {false, true}) {
          auto run = [&](SimdLevel level) {
            LstmOut out{Matrix(rows, 4 * hidden), f.h, f.c_prev,
                        Matrix(rows, hidden)};
            Matrix h_next(rows, hidden), c_next(rows, hidden);
            for (int step = 0; step < kSteps; ++step) {
              double* h_out = in_place ? out.h.data() : h_next.data();
              double* c_out = in_place ? out.c.data() : c_next.data();
              LstmStep(level, rows, packed.weights, f.x.data(), out.h.data(),
                       out.c.data(), hidden, out.act.data(), h_out, hidden,
                       c_out, hidden,
                       with_tanh_c ? out.tanh_c.data() : nullptr);
              if (!in_place) {
                std::swap(out.h, h_next);
                std::swap(out.c, c_next);
              }
            }
            return out;
          };
          const LstmOut want = run(SimdLevel::kAvx2);
          const LstmOut got = run(SimdLevel::kAvx512);
          const std::string what = "H=" + std::to_string(hidden) +
                                   " rows=" + std::to_string(rows) +
                                   (in_place ? " in place" : "") +
                                   (with_tanh_c ? " with tanh_c" : "");
          ASSERT_TRUE(SameBytes(want.act.data(), got.act.data(),
                                want.act.size(), what + " gates"));
          ASSERT_TRUE(SameBytes(want.h.data(), got.h.data(), want.h.size(),
                                what + " h"));
          ASSERT_TRUE(SameBytes(want.c.data(), got.c.data(), want.c.size(),
                                what + " c"));
          ASSERT_TRUE(SameBytes(want.tanh_c.data(), got.tanh_c.data(),
                                want.tanh_c.size(), what + " tanh_c"));
        }
      }
    }
  }

  // NaN states: one NaN of random sign and payload in each row's x, h and
  // c_prev, so the gate sums and the cell's products and adds meet two
  // NaNs; each lane must keep the same one at both levels.
  for (size_t hidden : {7u, 20u, 32u}) {
    const size_t rows = 13;
    LstmFixture f = MakeLstmFixture(rows, 5, hidden, 0x4A4E + hidden);
    Rng rng(hidden);
    auto nan = [&rng] {
      const uint64_t sign = rng.Bernoulli(0.5) ? 0x8000000000000000ull : 0;
      return FromBits(sign | 0x7FF8000000000000ull | rng.NextUint64() >> 14);
    };
    for (size_t r = 0; r < rows; ++r) {
      f.x(r, rng.UniformInt(5)) = nan();
      f.h(r, rng.UniformInt(hidden)) = nan();
      f.c_prev(r, rng.UniformInt(hidden)) = nan();
    }
    const LstmOut want = RunStep(SimdLevel::kAvx2, f);
    const LstmOut got = RunStep(SimdLevel::kAvx512, f);
    const std::string what = "NaN state H=" + std::to_string(hidden);
    ASSERT_TRUE(SameBytes(want.act.data(), got.act.data(), want.act.size(),
                          what + " gates"));
    ASSERT_TRUE(
        SameBytes(want.h.data(), got.h.data(), want.h.size(), what + " h"));
    ASSERT_TRUE(
        SameBytes(want.c.data(), got.c.data(), want.c.size(), what + " c"));
    ASSERT_TRUE(SameBytes(want.tanh_c.data(), got.tanh_c.data(),
                          want.tanh_c.size(), what + " tanh_c"));
  }

  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min();
  std::vector<double> probe = {inf,
                               -inf,
                               FromBits(0x7FF8000000000000ull),
                               FromBits(0xFFF8000000000000ull),
                               FromBits(0x7FF80000DEADBEEFull),
                               FromBits(0xFFFC000000012345ull),
                               FromBits(0x7FF0000000000001ull),
                               FromBits(0xFFF4000000000ABCull),
                               denorm,
                               -denorm,
                               tiny - denorm,
                               -(tiny - denorm),
                               tiny,
                               -tiny,
                               std::numeric_limits<double>::max(),
                               std::numeric_limits<double>::lowest()};
  for (double edge : {0.625, -708.396418532264106224, 709.782712893383996843,
                      -708.396418532264106224 / 2.0,
                      709.782712893383996843 / 2.0}) {
    for (double v : {edge, -edge}) {
      probe.push_back(v);
      probe.push_back(std::nextafter(v, inf));
      probe.push_back(std::nextafter(v, -inf));
    }
  }
  Rng rng(0xA512);
  for (int i = 0; i < 1000000; ++i) {
    probe.push_back(rng.Uniform(-40.0, 40.0));
    probe.push_back(FromBits(rng.NextUint64()));
  }
  // H = 31: 7-lane cell tails and the 4-wide last panel; H = 20: 4-lane
  // tails on ymm; H = 27: a 3-lane ymm tail and the 4-wide last panel. The
  // bias window starts 3H zeros before the probe and ends 3H after it.
  for (size_t hidden : {31u, 20u, 27u}) {
    std::vector<double> window(3 * hidden, 0.0);
    window.insert(window.end(), probe.begin(), probe.end());
    window.resize((window.size() / hidden + 4) * hidden, 0.0);
    LstmFixture f = MakeLstmFixture(1, 1, hidden, 0xA512);
    f.wx = Matrix(1, 4 * hidden);
    f.wh = Matrix(hidden, 4 * hidden);
    const PackedLstm packed(f);
    LstmStepWeights weights = packed.weights;
    auto run = [&](SimdLevel level) {
      LstmOut out{Matrix(1, 4 * hidden), Matrix(1, hidden), Matrix(1, hidden),
                  Matrix(1, hidden)};
      LstmStep(level, 1, weights, f.x.data(), f.h.data(), f.c_prev.data(),
               hidden, out.act.data(), out.h.data(), hidden, out.c.data(),
               hidden, out.tanh_c.data());
      return out;
    };
    for (size_t at = 0; at + 4 * hidden <= window.size(); at += hidden) {
      weights.bias = window.data() + at;
      const LstmOut want = run(SimdLevel::kAvx2);
      const LstmOut got = run(SimdLevel::kAvx512);
      const std::string what = "H=" + std::to_string(hidden) +
                               " probe bias at " + std::to_string(at);
      ASSERT_TRUE(SameBytes(want.act.data(), got.act.data(), want.act.size(),
                            what + " gates"));
      ASSERT_TRUE(
          SameBytes(want.h.data(), got.h.data(), want.h.size(), what + " h"));
      ASSERT_TRUE(
          SameBytes(want.c.data(), got.c.data(), want.c.size(), what + " c"));
      ASSERT_TRUE(SameBytes(want.tanh_c.data(), got.tanh_c.data(),
                            want.tanh_c.size(), what + " tanh_c"));
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

// --------------------------------------------------------- row drivers ---

/// Restores the environment/hardware thread default on scope exit.
class ThreadOverrideGuard {
 public:
  ~ThreadOverrideGuard() { SetRpasThreads(0); }
};

// The drivers run on their calling thread: at four pool threads, a
// 512 x 512 product, its narrow (n < 8) and transposed forms, DeepAR's
// sampling-roll step (128 rows, H 20) and a 96-row cell backward at H 64
// submit no pool task.
TEST(ParallelKernelTest, KernelsSubmitNoPoolTaskAtFourThreads) {
  ThreadOverrideGuard guard;
  SetRpasThreads(4);
  Rng rng(0x512);
  Matrix a(512, 512), b(512, 512), narrow_b(512, 2), small(128, 128);
  FillUniform(&a, &rng, -1.0, 1.0);
  FillUniform(&b, &rng, -1.0, 1.0);
  FillUniform(&narrow_b, &rng, -1.0, 1.0);
  FillUniform(&small, &rng, -1.0, 1.0);
  const LstmFixture step = MakeLstmFixture(128, 5, 20, 0x128);
  const LstmFixture cell = MakeLstmFixture(96, 5, 64, 0x96);
  std::vector<double> dh(96 * 64, 0.5), dc(96 * 64, -0.25);
  std::vector<double> dgates(96 * 4 * 64), dc_prev(96 * 64);
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    const uint64_t before = ThreadPool::Shared().GetStats().tasks_submitted;
    MatMul(a, b);
    MatMul(a, narrow_b);
    MatMulTN(small, small);
    MatMulNT(small, small);
    RunStep(level, step);
    const LstmOut out = RunStep(level, cell);
    LstmCellBackward(level, 96, 64, out.act.data(), cell.c_prev.data(), 64,
                     out.tanh_c.data(), dh.data(), 64, dc.data(), 64,
                     dgates.data(), dc_prev.data());
    EXPECT_EQ(before, ThreadPool::Shared().GetStats().tasks_submitted)
        << LevelName(level);
  }
}

TEST(ParallelKernelTest, NarrowGemmBitIdenticalToScalarRowsAtEveryLevel) {
  // Gemm's fixed n < 8 path keeps each row's running sums in registers; it
  // must equal the memory-accumulating GemmRowsScalar bit for bit, across
  // the kBlockK = 64 boundary and 16-row blocks, with strided operands,
  // accumulating into a non-zero C, at every level.
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
        std::vector<double> c = c0;
        Gemm(level, m, n, k, a.data(), lda, b.data(), ldb, c.data(), ldc);
        for (size_t i = 0; i < c.size(); ++i) {
          ASSERT_EQ(ref[i], c[i])
              << LevelName(level) << " n=" << n << " k=" << k << " @ " << i;
        }
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

/// GemmNT's scalar level: one dot product per element, summed from +0.0
/// over ascending p, then added to C.
void GemmNTOneColumnScalar(size_t m, size_t n, size_t k, const double* a,
                           size_t lda, const double* b, size_t ldb, double* c,
                           size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < k; ++p) {
        s += a[i * lda + p] * b[j * ldb + p];
      }
      c[i * ldc + j] += s;
    }
  }
}

TEST(ParallelKernelTest, GemmNTBitIdenticalToOneColumnReference) {
  // GemmNT computes two rows by four output columns per pass; each element
  // must still follow the single-column sequence bit for bit. Random small
  // shapes cover every m % 2, n % 4 and k % 4 tail, plus two shapes that
  // span several 16-row blocks; operands are strided and C accumulates.
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
      if (level >= SimdLevel::kAvx2) {
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
      std::vector<double> got = c0;
      GemmNT(level, s.m, s.n, s.k, a.data(), lda, b.data(), ldb, got.data(),
             ldc);
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(want[i], got[i]) << LevelName(level) << " " << s.m << "x"
                                   << s.n << "x" << s.k << " at " << i;
      }
    }
  }
}

/// GemmTN's per-element reference at `level`: the product summed from +0.0
/// over ascending p (mul-then-add at scalar, fma at AVX2), then added to C.
void GemmTNOneElementReference(SimdLevel level, size_t m, size_t n, size_t k,
                               const double* a, size_t lda, const double* b,
                               size_t ldb, double* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < k; ++p) {
        s = level == SimdLevel::kScalar
                ? s + a[p * lda + i] * b[p * ldb + j]
                : std::fma(a[p * lda + i], b[p * ldb + j], s);
      }
      c[i * ldc + j] += s;
    }
  }
}

TEST(ParallelKernelTest, GemmTNBitIdenticalToOneElementReference) {
  // GemmTN sums each element in a 4 x 8 register tile from +0.0 and adds it
  // to a prefilled C once. Random shapes cover every m % 4 and n % 8 tail
  // and k = 1; two shapes span several 16-row blocks. Operands and C are
  // strided.
  Rng rng(0x7E57);
  struct Shape {
    size_t m, n, k;
  };
  std::vector<Shape> shapes = {{1, 1, 1}, {4, 8, 1}, {7, 13, 1}};
  for (int i = 0; i < 200; ++i) {
    shapes.push_back({1 + rng.UniformInt(13), 1 + rng.UniformInt(37),
                      1 + rng.UniformInt(20)});
  }
  shapes.push_back({64, 37, 130});
  shapes.push_back({97, 128, 8});
  for (const Shape& s : shapes) {
    const size_t lda = s.m + 3, ldb = s.n + 5, ldc = s.n + 2;
    std::vector<double> a(s.k * lda), b(s.k * ldb), c0(s.m * ldc);
    for (double& v : a) v = rng.Uniform(-2.0, 2.0);
    for (double& v : b) v = rng.Uniform(-2.0, 2.0);
    for (double& v : c0) v = rng.Uniform(-2.0, 2.0);
    for (SimdLevel level : SupportedLevels()) {
      std::vector<double> want = c0;
      GemmTNOneElementReference(level, s.m, s.n, s.k, a.data(), lda,
                                b.data(), ldb, want.data(), ldc);
      std::vector<double> got = c0;
      GemmTN(level, s.m, s.n, s.k, a.data(), lda, b.data(), ldb, got.data(),
             ldc);
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(want[i], got[i]) << LevelName(level) << " " << s.m << "x"
                                   << s.n << "x" << s.k << " at " << i;
      }
    }
  }
}

TEST(ParallelKernelTest, TransposedGemmsAddLikeZeroTempThenAxpy) {
  // The accumulate contract every backward relies on: adding straight into
  // C is bit for bit a zero-filled temp, the same product into it, then
  // Axpy(1.0) into C. And avx512 must write avx2's bytes, into the temp and
  // into C. Operands and C mix finite values with NaNs of both signs and
  // random payloads, +-Inf, zeros of both signs and subnormals, so two
  // NaNs meet in the FMA chains, the horizontal sums and the adds into C.
  // Shapes cover 16-row blocks, k = 1, the DeepAR fine-tune's reverse
  // products and every m % 4, n % 16 and k % 4 tail, strided.
  Rng rng(0xACC0);
  const double inf = std::numeric_limits<double>::infinity();
  auto draw = [&]() -> double {
    const uint64_t sign = rng.Bernoulli(0.5) ? 0x8000000000000000ull : 0;
    switch (rng.Uniform() < 0.1 ? rng.UniformInt(4) : 4) {
      case 0:
        return FromBits(sign | 0x7FF8000000000000ull | rng.NextUint64() >> 14);
      case 1:
        return sign != 0 ? -inf : inf;
      case 2:
        return sign != 0 ? -0.0 : 0.0;
      case 3:  // a subnormal
        return FromBits(sign | rng.NextUint64() >> 12);
      default:
        return rng.Uniform(-2.0, 2.0);
    }
  };
  struct Shape {
    size_t m, n, k;
  };
  std::vector<Shape> shapes = {{1, 1, 1},   {5, 9, 1},    {6, 13, 3},
                               {9, 17, 7},  {3, 4, 130},  {70, 37, 130},
                               // A six-point fine-tune at H 32: dW_h, dW_x,
                               // a head's weight row and the bias row by
                               // GemmTN, dh_prev by GemmNT.
                               {32, 128, 6}, {5, 128, 6}, {1, 32, 6},
                               {1, 128, 6},  {6, 32, 128}};
  for (size_t m = 1; m <= 8; ++m) {
    for (size_t n = 1; n <= 33; ++n) {
      for (size_t k = 1; k <= 8; ++k) {
        shapes.push_back({m, n, k});
      }
    }
  }
  for (const Shape& s : shapes) {
    // GemmTN reads A as (k x m) and B as (k x n); GemmNT reads A as
    // (m x k) and B as (n x k). One buffer per operand serves both.
    const size_t ld = std::max({s.m, s.n, s.k}) + 3, ldc = s.n + 2;
    std::vector<double> a(std::max(s.k, s.m) * ld), b(std::max(s.k, s.n) * ld);
    std::vector<double> c0(s.m * ldc);
    for (double& v : a) v = draw();
    for (double& v : b) v = draw();
    for (double& v : c0) v = draw();
    std::vector<double> avx2_out[2][2];  // [GemmTN, GemmNT][temp, C]
    for (SimdLevel level : SupportedLevels()) {
      for (int transposed_b : {0, 1}) {  // 0: GemmTN, 1: GemmNT
        auto product = [&](double* c) {
          if (transposed_b == 0) {
            GemmTN(level, s.m, s.n, s.k, a.data(), ld, b.data(), ld, c, ldc);
          } else {
            GemmNT(level, s.m, s.n, s.k, a.data(), ld, b.data(), ld, c, ldc);
          }
        };
        std::vector<double> temp(c0.size(), 0.0);
        product(temp.data());
        std::vector<double> want = c0;
        for (size_t i = 0; i < s.m; ++i) {  // the padding columns stay as is
          Axpy(level, s.n, 1.0, temp.data() + i * ldc, want.data() + i * ldc);
        }
        std::vector<double> got = c0;
        product(got.data());
        const std::string what =
            std::string(LevelName(level)) +
            (transposed_b ? " GemmNT " : " GemmTN ") + std::to_string(s.m) +
            "x" + std::to_string(s.n) + "x" + std::to_string(s.k);
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_TRUE(SameValue(want[i], got[i]))
              << what << " at " << i << ": " << want[i] << " vs " << got[i];
        }
        if (level == SimdLevel::kAvx2) {
          avx2_out[transposed_b][0] = temp;
          avx2_out[transposed_b][1] = got;
        } else if (level == SimdLevel::kAvx512) {
          ASSERT_TRUE(SameBytes(avx2_out[transposed_b][0].data(), temp.data(),
                                temp.size(), what + " temp vs avx2"));
          ASSERT_TRUE(SameBytes(avx2_out[transposed_b][1].data(), got.data(),
                                got.size(), what + " C vs avx2"));
        }
      }
    }
  }
}

// ------------------------------------------------------------------ sort ---

/// The reference SortAscending must reproduce: std::sort over the
/// totalOrder keys bits ^ ((bits >> 63) & INT64_MAX), mapped back.
std::vector<double> TotalOrderSorted(std::vector<double> v) {
  std::vector<int64_t> keys(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    int64_t bits;
    std::memcpy(&bits, &v[i], sizeof(bits));
    keys[i] = bits ^ ((bits >> 63) & std::numeric_limits<int64_t>::max());
  }
  std::sort(keys.begin(), keys.end());
  for (size_t i = 0; i < v.size(); ++i) {
    const int64_t bits =
        keys[i] ^ ((keys[i] >> 63) & std::numeric_limits<int64_t>::max());
    std::memcpy(&v[i], &bits, sizeof(bits));
  }
  return v;
}

/// n values mixing the cases a sort can get wrong: repeated values, zeros
/// of both signs, infinities, subnormals, NaNs of both signs with payloads
/// (quiet and signalling), random bit patterns and ordinary doubles. Each
/// array takes one of three shapes: random order, descending, or a few
/// distinct values repeated.
std::vector<double> SortProbe(size_t n, int shape, Rng* rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double specials[] = {0.0,
                             -0.0,
                             inf,
                             -inf,
                             denorm,
                             -denorm,
                             std::numeric_limits<double>::min(),
                             -std::numeric_limits<double>::max(),
                             FromBits(0x7FF8000000000000ull),
                             FromBits(0xFFF8000000000000ull),
                             FromBits(0x7FF80000DEADBEEFull),
                             FromBits(0xFFFC000000012345ull),
                             FromBits(0x7FF0000000000001ull),
                             FromBits(0xFFF4000000000ABCull),
                             FromBits(0x7FFFFFFFFFFFFFFFull)};
  const size_t num_specials = sizeof(specials) / sizeof(specials[0]);
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) {
    switch (rng->UniformInt(shape == 2 ? 2 : 5)) {
      case 0:
        v.push_back(specials[rng->UniformInt(num_specials)]);
        break;
      case 1:
        v.push_back(v.empty() ? 1.0 : v[rng->UniformInt(v.size())]);
        break;
      case 2:
        v.push_back(FromBits(rng->NextUint64()));
        break;
      default:
        v.push_back(std::round(rng->Normal() * 8.0) / 4.0);
        break;
    }
  }
  if (shape == 1) {
    v = TotalOrderSorted(v);
    std::reverse(v.begin(), v.end());
  }
  return v;
}

// Every level must write the reference's bytes for every n from 0 past the
// network's cap of 128, including n = 100 (padded to 128) and the sizes on
// each side of every power of two.
TEST(SortKernelTest, EveryLevelWritesTotalOrderBytes) {
  Rng rng(0x5027);
  for (size_t n = 0; n <= 300; ++n) {
    for (int shape = 0; shape < 3; ++shape) {
      const std::vector<double> input = SortProbe(n, shape, &rng);
      const std::vector<double> want = TotalOrderSorted(input);
      for (SimdLevel level : SupportedLevels()) {
        std::vector<double> got = input;
        SortAscending(level, n, got.data());
        ASSERT_TRUE(SameBytes(want.data(), got.data(), n,
                              std::string(LevelName(level)) + " n=" +
                                  std::to_string(n) + " shape " +
                                  std::to_string(shape)));
      }
    }
  }
}

// Without NaN and -0.0 no two distinct bit patterns compare equal under
// `<`, so std::sort's output is unique, and every level must write it.
TEST(SortKernelTest, MatchesLessThanSortWithoutNaNOrNegativeZero) {
  Rng rng(0x5028);
  for (size_t n = 0; n <= 300; ++n) {
    for (int shape = 0; shape < 3; ++shape) {
      std::vector<double> input = SortProbe(n, shape, &rng);
      for (double& v : input) {
        if (std::isnan(v) || (v == 0.0 && std::signbit(v))) {
          v = rng.Normal();
        }
      }
      std::vector<double> want = input;
      std::sort(want.begin(), want.end());
      for (SimdLevel level : SupportedLevels()) {
        std::vector<double> got = input;
        SortAscending(level, n, got.data());
        ASSERT_TRUE(SameBytes(want.data(), got.data(), n,
                              std::string(LevelName(level)) + " n=" +
                                  std::to_string(n) + " shape " +
                                  std::to_string(shape)));
      }
    }
  }
}

}  // namespace
}  // namespace rpas::tensor::kernels
