#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "tensor/kernels_internal.h"

#if RPAS_KERNELS_HAVE_SSE2
#include <emmintrin.h>
#endif

namespace rpas::tensor::kernels {

// ------------------------------------------------------------- dispatch ---

namespace {

// -1 = no override; otherwise the int value of the forced SimdLevel.
std::atomic<int> g_forced_level{-1};

bool CpuSupports(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kSse2:
#if RPAS_KERNELS_HAVE_SSE2
      return true;  // SSE2 is part of the x86-64 baseline.
#else
      return false;
#endif
    case SimdLevel::kAvx2:
#if RPAS_KERNELS_HAVE_AVX2
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
  }
  return false;
}

SimdLevel BestSupported() {
  if (CpuSupports(SimdLevel::kAvx2)) {
    return SimdLevel::kAvx2;
  }
  if (CpuSupports(SimdLevel::kSse2)) {
    return SimdLevel::kSse2;
  }
  return SimdLevel::kScalar;
}

bool ParseLevelName(const char* name, SimdLevel* out) {
  if (std::strcmp(name, "scalar") == 0) {
    *out = SimdLevel::kScalar;
    return true;
  }
  if (std::strcmp(name, "sse2") == 0) {
    *out = SimdLevel::kSse2;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    *out = SimdLevel::kAvx2;
    return true;
  }
  return false;
}

// Resolved once; RPAS_SIMD is read at first kernel use, not per call.
SimdLevel ResolveDefaultLevel() {
  SimdLevel level = BestSupported();
  if (const char* env = std::getenv("RPAS_SIMD")) {
    SimdLevel requested;
    if (!ParseLevelName(env, &requested)) {
      std::fprintf(stderr,
                   "rpas: ignoring unknown RPAS_SIMD=%s "
                   "(expected scalar|sse2|avx2)\n",
                   env);
    } else if (requested > level) {
      std::fprintf(stderr,
                   "rpas: RPAS_SIMD=%s not supported on this CPU/build; "
                   "falling back to %s\n",
                   env, LevelName(level));
    } else {
      level = requested;
    }
  }
  return level;
}

}  // namespace

SimdLevel ActiveLevel() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) {
    return static_cast<SimdLevel>(forced);
  }
  static const SimdLevel kDefault = ResolveDefaultLevel();
  return kDefault;
}

const char* LevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool LevelCompiled(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kSse2:
      return RPAS_KERNELS_HAVE_SSE2 != 0;
    case SimdLevel::kAvx2:
      return RPAS_KERNELS_HAVE_AVX2 != 0;
  }
  return false;
}

bool LevelSupported(SimdLevel level) {
  return LevelCompiled(level) && CpuSupports(level);
}

ScopedSimdLevel::ScopedSimdLevel(SimdLevel level) : previous_(ActiveLevel()) {
  SimdLevel clamped = level;
  while (clamped > SimdLevel::kScalar && !LevelSupported(clamped)) {
    clamped = static_cast<SimdLevel>(static_cast<int>(clamped) - 1);
  }
  g_forced_level.store(static_cast<int>(clamped), std::memory_order_relaxed);
}

ScopedSimdLevel::~ScopedSimdLevel() {
  g_forced_level.store(static_cast<int>(previous_), std::memory_order_relaxed);
}

// --------------------------------------------------------- scalar kernels ---

namespace {

// Cache blocking mirrors the historical ops::MatMul loops exactly; per output
// element the k-accumulation still runs in globally increasing p order, so
// this is the bit-exact reference every other level is tested against.
constexpr size_t kBlockK = 64;
constexpr size_t kBlockJ = 256;

double ScalarSigmoid(double v) {
  return v >= 0.0 ? 1.0 / (1.0 + std::exp(-v))
                  : std::exp(v) / (1.0 + std::exp(v));
}

double ScalarSoftplus(double v) {
  // Stable: log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}).
  return (v > 0.0 ? v : 0.0) + std::log1p(std::exp(-std::fabs(v)));
}

void GemmPackedRowsScalar(size_t r0, size_t r1, size_t n, size_t k,
                          const double* a, size_t lda, const double* packed,
                          double* c, size_t ldc) {
  for (size_t j0 = 0; j0 < n; j0 += kPanelWidth) {
    const size_t w = std::min(kPanelWidth, n - j0);
    const double* panel = packed + (j0 / kPanelWidth) * k * kPanelWidth;
    for (size_t i = r0; i < r1; ++i) {
      const double* a_row = a + i * lda;
      double* c_row = c + i * ldc + j0;
      for (size_t p = 0; p < k; ++p) {
        const double a_ip = a_row[p];
        const double* b_row = panel + p * kPanelWidth;
        for (size_t j = 0; j < w; ++j) {
          c_row[j] += a_ip * b_row[j];
        }
      }
    }
  }
}

// Skinny-output GEMM (n = N < kPanelWidth): R rows starting at i, with
// their R x N running sums held in registers across the whole k loop
// instead of read-modify-written in memory. Every element still sees the
// ascending-p mul-then-add sequence of GemmRowsScalar, bit for bit.
template <size_t N, size_t R>
void NarrowTile(size_t i, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc) {
  double acc[R][N];
  for (size_t t = 0; t < R; ++t) {
    for (size_t j = 0; j < N; ++j) {
      acc[t][j] = c[(i + t) * ldc + j];
    }
  }
  for (size_t p = 0; p < k; ++p) {
    const double* b_row = b + p * ldb;
    for (size_t t = 0; t < R; ++t) {
      const double a_ip = a[(i + t) * lda + p];
      for (size_t j = 0; j < N; ++j) {
        acc[t][j] += a_ip * b_row[j];
      }
    }
  }
  for (size_t t = 0; t < R; ++t) {
    for (size_t j = 0; j < N; ++j) {
      c[(i + t) * ldc + j] = acc[t][j];
    }
  }
}

// Rows in tiles of four, so four independent add chains overlap.
template <size_t N>
void GemmRowsNarrow(size_t r0, size_t r1, size_t k, const double* a,
                    size_t lda, const double* b, size_t ldb, double* c,
                    size_t ldc) {
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    NarrowTile<N, 4>(i, k, a, lda, b, ldb, c, ldc);
  }
  for (; i < r1; ++i) {
    NarrowTile<N, 1>(i, k, a, lda, b, ldb, c, ldc);
  }
}

using GemmRowsNarrowFn = void (*)(size_t, size_t, size_t, const double*,
                                  size_t, const double*, size_t, double*,
                                  size_t);
// Indexed by n; n = 0 never reaches the table.
constexpr GemmRowsNarrowFn kGemmRowsNarrow[kPanelWidth] = {
    nullptr,           GemmRowsNarrow<1>, GemmRowsNarrow<2>,
    GemmRowsNarrow<3>, GemmRowsNarrow<4>, GemmRowsNarrow<5>,
    GemmRowsNarrow<6>, GemmRowsNarrow<7>};

void GemmTNScalar(size_t m, size_t n, size_t k, const double* a, size_t lda,
                  const double* b, size_t ldb, double* c, size_t ldc) {
  // c[i][j] += sum_p a[p][i] * b[p][j], ascending p: the exact accumulation
  // order of Transpose(a) followed by the reference GEMM.
  for (size_t p = 0; p < k; ++p) {
    const double* a_row = a + p * lda;
    const double* b_row = b + p * ldb;
    for (size_t i = 0; i < m; ++i) {
      const double a_pi = a_row[i];
      double* c_row = c + i * ldc;
      for (size_t j = 0; j < n; ++j) {
        c_row[j] += a_pi * b_row[j];
      }
    }
  }
}

void GemmNTScalar(size_t m, size_t n, size_t k, const double* a, size_t lda,
                  const double* b, size_t ldb, double* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * lda;
    double* c_row = c + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      const double* b_row = b + j * ldb;
      double s = c_row[j];
      for (size_t p = 0; p < k; ++p) {
        s += a_row[p] * b_row[p];
      }
      c_row[j] = s;
    }
  }
}

void LstmCellForwardScalar(size_t batch, size_t hidden, double* gates,
                           const double* hw, const double* bias,
                           const double* c_prev, size_t ldcp, double* h_out,
                           size_t ldh, double* c_out, size_t ldc,
                           double* tanh_c) {
  for (size_t r = 0; r < batch; ++r) {
    double* g_row = gates + r * 4 * hidden;
    const double* hw_row = hw + r * 4 * hidden;
    const double* cp_row = c_prev + r * ldcp;
    double* h_row = h_out + r * ldh;
    double* c_row = c_out + r * ldc;
    double* tc_row = tanh_c != nullptr ? tanh_c + r * hidden : nullptr;
    // Pre-activation of gate column c: (xW_x + hW_h) + b.
    auto pre = [&](size_t c) { return (g_row[c] + hw_row[c]) + bias[c]; };
    for (size_t j = 0; j < hidden; ++j) {
      const double i = ScalarSigmoid(pre(j));
      const double f = ScalarSigmoid(pre(hidden + j));
      const double g = std::tanh(pre(2 * hidden + j));
      const double o = ScalarSigmoid(pre(3 * hidden + j));
      // Mul-then-add in the historical shapes (f*c + i*g; no FMA) so the
      // scalar level reproduces the old per-node graph bit-for-bit.
      const double t1 = f * cp_row[j];
      const double t2 = i * g;
      const double cn = t1 + t2;
      const double tc = std::tanh(cn);
      g_row[j] = i;
      g_row[hidden + j] = f;
      g_row[2 * hidden + j] = g;
      g_row[3 * hidden + j] = o;
      c_row[j] = cn;
      h_row[j] = o * tc;
      if (tc_row != nullptr) {
        tc_row[j] = tc;
      }
    }
  }
}

void LstmCellBackwardScalar(size_t batch, size_t hidden, const double* act,
                            const double* c_prev, size_t ldcp,
                            const double* tanh_c, const double* dh, size_t ldh,
                            const double* dc, size_t ldc, double* dgates,
                            double* dc_prev) {
  for (size_t r = 0; r < batch; ++r) {
    const double* a_row = act + r * 4 * hidden;
    const double* cp_row = c_prev + r * ldcp;
    const double* tc_row = tanh_c + r * hidden;
    const double* dh_row = dh + r * ldh;
    const double* dc_row = dc + r * ldc;
    double* dg_row = dgates + r * 4 * hidden;
    double* dcp_row = dc_prev + r * hidden;
    for (size_t j = 0; j < hidden; ++j) {
      const double i = a_row[j];
      const double f = a_row[hidden + j];
      const double g = a_row[2 * hidden + j];
      const double o = a_row[3 * hidden + j];
      const double tc = tc_row[j];
      // Expression shapes replicate the old per-node backward chain exactly
      // (each rounding step preserved), so parameter gradients at the scalar
      // level match the unfused graph bit-for-bit.
      const double d_o = dh_row[j] * tc;
      const double d_tc = dh_row[j] * o;
      const double d_c = dc_row[j] + d_tc * (1.0 - tc * tc);
      const double d_f = d_c * cp_row[j];
      const double d_i = d_c * g;
      const double d_g = d_c * i;
      dcp_row[j] = d_c * f;
      dg_row[j] = (d_i * i) * (1.0 - i);
      dg_row[hidden + j] = (d_f * f) * (1.0 - f);
      dg_row[2 * hidden + j] = d_g * (1.0 - g * g);
      dg_row[3 * hidden + j] = (d_o * o) * (1.0 - o);
    }
  }
}

// Cost model for the parallel drivers. Forking the shared pool costs on the
// order of microseconds, so products below the flop threshold run as one
// chunk on the calling thread (ParallelFor's serial path) — the tiny GEMMs
// of a single decision round never pay scheduling overhead. Thresholds and
// grains depend only on operand shapes, never the thread count, keeping the
// partition (and the result) reproducible across RPAS_NUM_THREADS values.
constexpr double kMinParallelFlops = 256.0 * 1024.0;
// Rows per chunk once a product clears the threshold. Even, so chunk
// boundaries preserve the SIMD kernels' 2-row register tiling.
constexpr size_t kGemmRowGrainRows = 16;
// The fused cell step is transcendental-bound; one tanh/sigmoid costs tens
// of flops, and each batch element evaluates 4*hidden of them.
constexpr double kLstmFlopsPerGate = 16.0;
constexpr size_t kLstmRowGrainRows = 8;

#if RPAS_KERNELS_HAVE_SSE2

// SSE2 GEMM: 2-wide mul-then-add in the same per-element accumulation order
// as the scalar reference — bit-identical by construction, just wider.

void GemmPanelSse2(size_t r0, size_t r1, size_t w, size_t k, const double* a,
                   size_t lda, const double* panel, double* c, size_t ldc) {
  if (w == kPanelWidth) {
    size_t i = r0;
    for (; i + 2 <= r1; i += 2) {
      double* c0 = c + i * ldc;
      double* c1 = c + (i + 1) * ldc;
      __m128d acc00 = _mm_loadu_pd(c0);
      __m128d acc01 = _mm_loadu_pd(c0 + 2);
      __m128d acc02 = _mm_loadu_pd(c0 + 4);
      __m128d acc03 = _mm_loadu_pd(c0 + 6);
      __m128d acc10 = _mm_loadu_pd(c1);
      __m128d acc11 = _mm_loadu_pd(c1 + 2);
      __m128d acc12 = _mm_loadu_pd(c1 + 4);
      __m128d acc13 = _mm_loadu_pd(c1 + 6);
      const double* a0 = a + i * lda;
      const double* a1 = a + (i + 1) * lda;
      for (size_t p = 0; p < k; ++p) {
        const double* b_row = panel + p * kPanelWidth;
        const __m128d b0 = _mm_loadu_pd(b_row);
        const __m128d b1 = _mm_loadu_pd(b_row + 2);
        const __m128d b2 = _mm_loadu_pd(b_row + 4);
        const __m128d b3 = _mm_loadu_pd(b_row + 6);
        const __m128d av0 = _mm_set1_pd(a0[p]);
        acc00 = _mm_add_pd(acc00, _mm_mul_pd(av0, b0));
        acc01 = _mm_add_pd(acc01, _mm_mul_pd(av0, b1));
        acc02 = _mm_add_pd(acc02, _mm_mul_pd(av0, b2));
        acc03 = _mm_add_pd(acc03, _mm_mul_pd(av0, b3));
        const __m128d av1 = _mm_set1_pd(a1[p]);
        acc10 = _mm_add_pd(acc10, _mm_mul_pd(av1, b0));
        acc11 = _mm_add_pd(acc11, _mm_mul_pd(av1, b1));
        acc12 = _mm_add_pd(acc12, _mm_mul_pd(av1, b2));
        acc13 = _mm_add_pd(acc13, _mm_mul_pd(av1, b3));
      }
      _mm_storeu_pd(c0, acc00);
      _mm_storeu_pd(c0 + 2, acc01);
      _mm_storeu_pd(c0 + 4, acc02);
      _mm_storeu_pd(c0 + 6, acc03);
      _mm_storeu_pd(c1, acc10);
      _mm_storeu_pd(c1 + 2, acc11);
      _mm_storeu_pd(c1 + 4, acc12);
      _mm_storeu_pd(c1 + 6, acc13);
    }
    for (; i < r1; ++i) {
      double* c0 = c + i * ldc;
      __m128d acc0 = _mm_loadu_pd(c0);
      __m128d acc1 = _mm_loadu_pd(c0 + 2);
      __m128d acc2 = _mm_loadu_pd(c0 + 4);
      __m128d acc3 = _mm_loadu_pd(c0 + 6);
      const double* a0 = a + i * lda;
      for (size_t p = 0; p < k; ++p) {
        const double* b_row = panel + p * kPanelWidth;
        const __m128d av = _mm_set1_pd(a0[p]);
        acc0 = _mm_add_pd(acc0, _mm_mul_pd(av, _mm_loadu_pd(b_row)));
        acc1 = _mm_add_pd(acc1, _mm_mul_pd(av, _mm_loadu_pd(b_row + 2)));
        acc2 = _mm_add_pd(acc2, _mm_mul_pd(av, _mm_loadu_pd(b_row + 4)));
        acc3 = _mm_add_pd(acc3, _mm_mul_pd(av, _mm_loadu_pd(b_row + 6)));
      }
      _mm_storeu_pd(c0, acc0);
      _mm_storeu_pd(c0 + 2, acc1);
      _mm_storeu_pd(c0 + 4, acc2);
      _mm_storeu_pd(c0 + 6, acc3);
    }
    return;
  }
  // Column-tail panel: stage the row segment in a zero-padded buffer, run the
  // full-width kernel arithmetic, and copy back only the live columns. The
  // per-live-element operation sequence is identical to the full-panel case.
  for (size_t i = r0; i < r1; ++i) {
    double tmp[kPanelWidth] = {0, 0, 0, 0, 0, 0, 0, 0};
    double* c0 = c + i * ldc;
    for (size_t j = 0; j < w; ++j) {
      tmp[j] = c0[j];
    }
    __m128d acc0 = _mm_loadu_pd(tmp);
    __m128d acc1 = _mm_loadu_pd(tmp + 2);
    __m128d acc2 = _mm_loadu_pd(tmp + 4);
    __m128d acc3 = _mm_loadu_pd(tmp + 6);
    const double* a0 = a + i * lda;
    for (size_t p = 0; p < k; ++p) {
      const double* b_row = panel + p * kPanelWidth;
      const __m128d av = _mm_set1_pd(a0[p]);
      acc0 = _mm_add_pd(acc0, _mm_mul_pd(av, _mm_loadu_pd(b_row)));
      acc1 = _mm_add_pd(acc1, _mm_mul_pd(av, _mm_loadu_pd(b_row + 2)));
      acc2 = _mm_add_pd(acc2, _mm_mul_pd(av, _mm_loadu_pd(b_row + 4)));
      acc3 = _mm_add_pd(acc3, _mm_mul_pd(av, _mm_loadu_pd(b_row + 6)));
    }
    _mm_storeu_pd(tmp, acc0);
    _mm_storeu_pd(tmp + 2, acc1);
    _mm_storeu_pd(tmp + 4, acc2);
    _mm_storeu_pd(tmp + 6, acc3);
    for (size_t j = 0; j < w; ++j) {
      c0[j] = tmp[j];
    }
  }
}

void GemmPackedRowsSse2(size_t r0, size_t r1, size_t n, size_t k,
                        const double* a, size_t lda, const double* packed,
                        double* c, size_t ldc) {
  for (size_t j0 = 0; j0 < n; j0 += kPanelWidth) {
    const size_t w = std::min(kPanelWidth, n - j0);
    const double* panel = packed + (j0 / kPanelWidth) * k * kPanelWidth;
    GemmPanelSse2(r0, r1, w, k, a, lda, panel, c + j0, ldc);
  }
}

void AxpySse2(size_t n, double alpha, const double* x, double* y) {
  const __m128d av = _mm_set1_pd(alpha);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(
        y + i, _mm_add_pd(_mm_loadu_pd(y + i),
                          _mm_mul_pd(av, _mm_loadu_pd(x + i))));
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

#endif  // RPAS_KERNELS_HAVE_SSE2

}  // namespace

// ------------------------------------------------------------ entry points ---

size_t PackedSize(size_t k, size_t n) {
  const size_t panels = (n + kPanelWidth - 1) / kPanelWidth;
  return panels * k * kPanelWidth;
}

void PackB(size_t k, size_t n, const double* b, size_t ldb, double* packed) {
  for (size_t j0 = 0; j0 < n; j0 += kPanelWidth) {
    const size_t w = std::min(kPanelWidth, n - j0);
    double* dst = packed + (j0 / kPanelWidth) * k * kPanelWidth;
    for (size_t p = 0; p < k; ++p) {
      const double* src = b + p * ldb + j0;
      size_t j = 0;
      for (; j < w; ++j) {
        dst[j] = src[j];
      }
      for (; j < kPanelWidth; ++j) {
        dst[j] = 0.0;
      }
      dst += kPanelWidth;
    }
  }
}

void GemmPackedRows(SimdLevel level, size_t r0, size_t r1, size_t n, size_t k,
                    const double* a, size_t lda, const double* packed,
                    double* c, size_t ldc) {
#if RPAS_KERNELS_HAVE_AVX2
  if (level == SimdLevel::kAvx2) {
    avx2::GemmPackedRows(r0, r1, n, k, a, lda, packed, c, ldc);
    return;
  }
#endif
#if RPAS_KERNELS_HAVE_SSE2
  if (level >= SimdLevel::kSse2) {
    GemmPackedRowsSse2(r0, r1, n, k, a, lda, packed, c, ldc);
    return;
  }
#endif
  (void)level;
  GemmPackedRowsScalar(r0, r1, n, k, a, lda, packed, c, ldc);
}

void GemmRowsScalar(size_t r0, size_t r1, size_t n, size_t k, const double* a,
                    size_t lda, const double* b, size_t ldb, double* c,
                    size_t ldc) {
  for (size_t p0 = 0; p0 < k; p0 += kBlockK) {
    const size_t p1 = std::min(p0 + kBlockK, k);
    for (size_t j0 = 0; j0 < n; j0 += kBlockJ) {
      const size_t j1 = std::min(j0 + kBlockJ, n);
      for (size_t i = r0; i < r1; ++i) {
        double* c_row = c + i * ldc;
        const double* a_row = a + i * lda;
        for (size_t p = p0; p < p1; ++p) {
          const double a_ip = a_row[p];
          const double* b_row = b + p * ldb;
          for (size_t j = j0; j < j1; ++j) {
            c_row[j] += a_ip * b_row[j];
          }
        }
      }
    }
  }
}

size_t GemmRowGrain(size_t m, size_t n, size_t k) {
  if (m == 0) {
    return 1;
  }
  const double flops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(k);
  return flops < kMinParallelFlops ? m : kGemmRowGrainRows;
}

size_t LstmRowGrain(size_t batch, size_t hidden) {
  if (batch == 0) {
    return 1;
  }
  const double flops = kLstmFlopsPerGate * 4.0 *
                       static_cast<double>(batch) *
                       static_cast<double>(hidden);
  return flops < kMinParallelFlops ? batch : kLstmRowGrainRows;
}

void Gemm(SimdLevel level, size_t m, size_t n, size_t k, const double* a,
          size_t lda, const double* b, size_t ldb, double* c, size_t ldc) {
  if (m == 0 || n == 0) {
    return;
  }
  const size_t grain = GemmRowGrain(m, n, k);
  if (n < kPanelWidth) {
    // Skinny outputs such as head projections, where packing overhead
    // dominates. The cutoff depends only on the operand shapes, never on
    // the batch row count, preserving batched-vs-unbatched bit-identity.
    const GemmRowsNarrowFn narrow = kGemmRowsNarrow[n];
    ParallelFor(0, m, grain, [&](size_t r0, size_t r1) {
      narrow(r0, r1, k, a, lda, b, ldb, c, ldc);
    });
    return;
  }
  if (level == SimdLevel::kScalar) {
    ParallelFor(0, m, grain, [&](size_t r0, size_t r1) {
      GemmRowsScalar(r0, r1, n, k, a, lda, b, ldb, c, ldc);
    });
    return;
  }
  // Pack B once into zero-padded column panels; every worker reads the same
  // packed image. The buffer is thread_local to the *calling* thread so
  // concurrent GEMMs (serve batching, parallel backtest folds, fleet
  // shards) never contend, and its capacity is recycled across calls.
  thread_local std::vector<double> pack_buffer;
  pack_buffer.resize(PackedSize(k, n));
  PackB(k, n, b, ldb, pack_buffer.data());
  const double* packed = pack_buffer.data();
  ParallelFor(0, m, grain, [&](size_t r0, size_t r1) {
    GemmPackedRows(level, r0, r1, n, k, a, lda, packed, c, ldc);
  });
}

void GemmQuant(SimdLevel level, size_t m, size_t n, size_t k, const double* a,
               size_t lda, DType b_dtype, const uint8_t* b_payload, double* c,
               size_t ldc) {
  if (m == 0 || n == 0 || k == 0) {
    return;
  }
  // Decode the stored weights into a thread-local fp64 image once per call
  // (fp16/fp32 convert, q8 block dequant) and hand that to the ordinary
  // Gemm driver. Decoding is a pure per-element function of the payload
  // bytes, so the image — and therefore every downstream guarantee of
  // Gemm() — is independent of m, the thread count, and the host
  // endianness. The buffer is distinct from Gemm's pack_buffer, so the
  // nested call recycles both without aliasing.
  thread_local std::vector<double> dequant_buffer;
  dequant_buffer.resize(k * n);
  DecodePayload(b_dtype, b_payload, k * n, dequant_buffer.data());
  Gemm(level, m, n, k, a, lda, dequant_buffer.data(), n, c, ldc);
}

void GemmTN(SimdLevel level, size_t m, size_t n, size_t k, const double* a,
            size_t lda, const double* b, size_t ldb, double* c, size_t ldc) {
  if (m == 0 || n == 0) {
    return;
  }
  // Partition over output rows (columns of A). Within a chunk the p loop
  // still visits every k index in ascending order per element, so the
  // split changes nothing about any element's accumulation sequence.
  ParallelFor(0, m, GemmRowGrain(m, n, k), [&](size_t i0, size_t i1) {
    const size_t rows = i1 - i0;
#if RPAS_KERNELS_HAVE_AVX2
    if (level == SimdLevel::kAvx2) {
      avx2::GemmTN(rows, n, k, a + i0, lda, b, ldb, c + i0 * ldc, ldc);
      return;
    }
#endif
    (void)level;
    GemmTNScalar(rows, n, k, a + i0, lda, b, ldb, c + i0 * ldc, ldc);
  });
}

void GemmNT(SimdLevel level, size_t m, size_t n, size_t k, const double* a,
            size_t lda, const double* b, size_t ldb, double* c, size_t ldc) {
  if (m == 0 || n == 0) {
    return;
  }
  // Rows of C are independent dot products — trivially bit-stable under
  // any row partition.
  ParallelFor(0, m, GemmRowGrain(m, n, k), [&](size_t i0, size_t i1) {
    const size_t rows = i1 - i0;
#if RPAS_KERNELS_HAVE_AVX2
    if (level == SimdLevel::kAvx2) {
      avx2::GemmNT(rows, n, k, a + i0 * lda, lda, b, ldb, c + i0 * ldc, ldc);
      return;
    }
#endif
    (void)level;
    GemmNTScalar(rows, n, k, a + i0 * lda, lda, b, ldb, c + i0 * ldc, ldc);
  });
}

void Axpy(SimdLevel level, size_t n, double alpha, const double* x,
          double* y) {
#if RPAS_KERNELS_HAVE_AVX2
  if (level == SimdLevel::kAvx2) {
    avx2::Axpy(n, alpha, x, y);
    return;
  }
#endif
#if RPAS_KERNELS_HAVE_SSE2
  if (level >= SimdLevel::kSse2) {
    AxpySse2(n, alpha, x, y);
    return;
  }
#endif
  (void)level;
  for (size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

double Dot(SimdLevel level, size_t n, const double* x, const double* y) {
#if RPAS_KERNELS_HAVE_AVX2
  if (level == SimdLevel::kAvx2) {
    return avx2::Dot(n, x, y);
  }
#endif
  // SSE2 keeps the scalar reduction order (bit-identity contract).
  (void)level;
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += x[i] * y[i];
  }
  return s;
}

double Sum(SimdLevel level, size_t n, const double* x) {
#if RPAS_KERNELS_HAVE_AVX2
  if (level == SimdLevel::kAvx2) {
    return avx2::Sum(n, x);
  }
#endif
  (void)level;
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += x[i];
  }
  return s;
}

void EwTanh(SimdLevel level, size_t n, const double* x, double* out) {
#if RPAS_KERNELS_HAVE_AVX2
  if (level == SimdLevel::kAvx2) {
    avx2::EwTanh(n, x, out);
    return;
  }
#endif
  (void)level;
  for (size_t i = 0; i < n; ++i) {
    out[i] = std::tanh(x[i]);
  }
}

void EwSigmoid(SimdLevel level, size_t n, const double* x, double* out) {
#if RPAS_KERNELS_HAVE_AVX2
  if (level == SimdLevel::kAvx2) {
    avx2::EwSigmoid(n, x, out);
    return;
  }
#endif
  (void)level;
  for (size_t i = 0; i < n; ++i) {
    out[i] = ScalarSigmoid(x[i]);
  }
}

void EwSoftplus(SimdLevel level, size_t n, const double* x, double* out) {
  // Softplus only touches head outputs (B x 1 per unroll step), never the
  // hot 4H gate blocks — all levels route to the stable scalar formula.
  (void)level;
  for (size_t i = 0; i < n; ++i) {
    out[i] = ScalarSoftplus(x[i]);
  }
}

void EwRelu(SimdLevel level, size_t n, const double* x, double* out) {
  (void)level;
  for (size_t i = 0; i < n; ++i) {
    out[i] = x[i] > 0.0 ? x[i] : 0.0;
  }
}

void LstmCellForward(SimdLevel level, size_t batch, size_t hidden,
                     double* gates, const double* hw, const double* bias,
                     const double* c_prev, size_t ldcp, double* h_out,
                     size_t ldh, double* c_out, size_t ldc, double* tanh_c) {
  if (batch == 0 || hidden == 0) {
    return;
  }
  // Batch rows are independent; the explicit leading dimensions let each
  // chunk address its row block with plain pointer offsets.
  ParallelFor(0, batch, LstmRowGrain(batch, hidden),
              [&](size_t r0, size_t r1) {
    const size_t rows = r1 - r0;
    double* g = gates + r0 * 4 * hidden;
    const double* hwp = hw + r0 * 4 * hidden;
    const double* cp = c_prev + r0 * ldcp;
    double* h = h_out + r0 * ldh;
    double* co = c_out + r0 * ldc;
    double* tc = tanh_c != nullptr ? tanh_c + r0 * hidden : nullptr;
#if RPAS_KERNELS_HAVE_AVX2
    if (level == SimdLevel::kAvx2) {
      avx2::LstmCellForward(rows, hidden, g, hwp, bias, cp, ldcp, h, ldh, co,
                            ldc, tc);
      return;
    }
#endif
    // SSE2 routes here too: the step is transcendental-bound and the scalar
    // formulas are the bit-identity reference.
    (void)level;
    LstmCellForwardScalar(rows, hidden, g, hwp, bias, cp, ldcp, h, ldh, co,
                          ldc, tc);
  });
}

void LstmCellBackward(SimdLevel level, size_t batch, size_t hidden,
                      const double* act, const double* c_prev, size_t ldcp,
                      const double* tanh_c, const double* dh, size_t ldh,
                      const double* dc, size_t ldc, double* dgates,
                      double* dc_prev) {
  if (batch == 0 || hidden == 0) {
    return;
  }
  ParallelFor(0, batch, LstmRowGrain(batch, hidden),
              [&](size_t r0, size_t r1) {
    const size_t rows = r1 - r0;
    const double* a = act + r0 * 4 * hidden;
    const double* cp = c_prev + r0 * ldcp;
    const double* tc = tanh_c + r0 * hidden;
    const double* dh_p = dh + r0 * ldh;
    const double* dc_p = dc + r0 * ldc;
    double* dg = dgates + r0 * 4 * hidden;
    double* dcp = dc_prev + r0 * hidden;
#if RPAS_KERNELS_HAVE_AVX2
    if (level == SimdLevel::kAvx2) {
      avx2::LstmCellBackward(rows, hidden, a, cp, ldcp, tc, dh_p, ldh, dc_p,
                             ldc, dg, dcp);
      return;
    }
#endif
    (void)level;
    LstmCellBackwardScalar(rows, hidden, a, cp, ldcp, tc, dh_p, ldh, dc_p,
                           ldc, dg, dcp);
  });
}

}  // namespace rpas::tensor::kernels
