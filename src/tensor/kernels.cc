#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "tensor/kernels_internal.h"

namespace rpas::tensor::kernels {

// ------------------------------------------------------------- dispatch ---

namespace {

// -1 = no override; otherwise the int value of the forced SimdLevel.
std::atomic<int> g_forced_level{-1};

constexpr SimdLevel kAllLevels[] = {SimdLevel::kScalar, SimdLevel::kAvx2,
                                    SimdLevel::kAvx512};

bool CpuSupports(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if RPAS_KERNELS_HAVE_AVX2
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case SimdLevel::kAvx512:
      // The level also runs every AVX2 body; its own bodies need AVX-512F
      // alone (the target attribute in kernels_avx512.cc).
#if RPAS_KERNELS_HAVE_AVX512
      return CpuSupports(SimdLevel::kAvx2) &&
             __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

bool ParseLevelName(const char* name, SimdLevel* out) {
  for (SimdLevel level : kAllLevels) {
    if (std::strcmp(name, LevelName(level)) == 0) {
      *out = level;
      return true;
    }
  }
  return false;
}

// Resolved once; RPAS_SIMD is read at first kernel use, not per call.
SimdLevel ResolveDefaultLevel() {
  SimdLevel level = SupportedLevels().back();
  if (const char* env = std::getenv("RPAS_SIMD")) {
    SimdLevel requested;
    if (!ParseLevelName(env, &requested)) {
      std::fprintf(stderr,
                   "rpas: ignoring unknown RPAS_SIMD=%s "
                   "(expected scalar|avx2|avx512)\n",
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
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool LevelCompiled(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
      return RPAS_KERNELS_HAVE_AVX2 != 0;
    case SimdLevel::kAvx512:
      return RPAS_KERNELS_HAVE_AVX512 != 0;
  }
  return false;
}

bool LevelSupported(SimdLevel level) {
  return LevelCompiled(level) && CpuSupports(level);
}

std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level : kAllLevels) {
    if (LevelSupported(level)) {
      levels.push_back(level);
    }
  }
  return levels;
}

ScopedSimdLevel::ScopedSimdLevel(SimdLevel level) : previous_(ActiveLevel()) {
  SimdLevel clamped = SimdLevel::kScalar;
  for (SimdLevel supported : SupportedLevels()) {
    if (supported <= level) {
      clamped = supported;
    }
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

// GemmTN over rows [i, i + R) and columns [0, W) of the b and c pointers:
// each element's a[p][i] * b[p][j] summed from +0.0 over ascending p in
// registers, then added to C once.
template <size_t R, size_t W>
void TnTileScalar(size_t i, size_t k, const double* a, size_t lda,
                  const double* b, size_t ldb, double* c, size_t ldc) {
  double acc[R][W] = {};
  for (size_t p = 0; p < k; ++p) {
    const double* a_row = a + p * lda + i;
    const double* b_row = b + p * ldb;
    for (size_t t = 0; t < R; ++t) {
      const double a_pi = a_row[t];
      for (size_t j = 0; j < W; ++j) {
        acc[t][j] += a_pi * b_row[j];
      }
    }
  }
  for (size_t t = 0; t < R; ++t) {
    for (size_t j = 0; j < W; ++j) {
      c[(i + t) * ldc + j] += acc[t][j];
    }
  }
}

template <size_t W>
void TnColumnsScalar(size_t m, size_t k, const double* a, size_t lda,
                     const double* b, size_t ldb, double* c, size_t ldc) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    TnTileScalar<4, W>(i, k, a, lda, b, ldb, c, ldc);
  }
  for (; i < m; ++i) {
    TnTileScalar<1, W>(i, k, a, lda, b, ldb, c, ldc);
  }
}

void GemmTNScalar(size_t m, size_t n, size_t k, const double* a, size_t lda,
                  const double* b, size_t ldb, double* c, size_t ldc) {
  // 4 x 8 tiles, then the n % 8 tail a column at a time. Every element's
  // sum is the one a zero-filled C gave Transpose(a) and the reference
  // GEMM: mul-then-add over ascending p from +0.0.
  size_t j = 0;
  for (; j + kPanelWidth <= n; j += kPanelWidth) {
    TnColumnsScalar<kPanelWidth>(m, k, a, lda, b + j, ldb, c + j, ldc);
  }
  for (; j < n; ++j) {
    TnColumnsScalar<1>(m, k, a, lda, b + j, ldb, c + j, ldc);
  }
}

// GemmNT over rows [i, i + R) and columns [j, j + Q): R x Q dot products,
// each summed from +0.0 over ascending p and then added to C once.
template <size_t R, size_t Q>
void NtTileScalar(size_t i, size_t j, size_t k, const double* a, size_t lda,
                  const double* b, size_t ldb, double* c, size_t ldc) {
  double acc[R][Q] = {};
  for (size_t p = 0; p < k; ++p) {
    for (size_t r = 0; r < R; ++r) {
      const double a_ip = a[(i + r) * lda + p];
      for (size_t q = 0; q < Q; ++q) {
        acc[r][q] += a_ip * b[(j + q) * ldb + p];
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t q = 0; q < Q; ++q) {
      c[(i + r) * ldc + j + q] += acc[r][q];
    }
  }
}

template <size_t R>
void NtRowsScalar(size_t i, size_t n, size_t k, const double* a, size_t lda,
                  const double* b, size_t ldb, double* c, size_t ldc) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    NtTileScalar<R, 4>(i, j, k, a, lda, b, ldb, c, ldc);
  }
  for (; j < n; ++j) {
    NtTileScalar<R, 1>(i, j, k, a, lda, b, ldb, c, ldc);
  }
}

void GemmNTScalar(size_t m, size_t n, size_t k, const double* a, size_t lda,
                  const double* b, size_t ldb, double* c, size_t ldc) {
  size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    NtRowsScalar<2>(i, n, k, a, lda, b, ldb, c, ldc);
  }
  for (; i < m; ++i) {
    NtRowsScalar<1>(i, n, k, a, lda, b, ldb, c, ldc);
  }
}

// Sums a · panel over p < k into the eight columns of one packed panel,
// continuing the mul-then-add chain each acc[j] holds.
void PanelRowScalar(const double* a, size_t k, const double* panel,
                    double* acc) {
  for (size_t p = 0; p < k; ++p) {
    const double a_p = a[p];
    const double* b_row = panel + p * kPanelWidth;
    for (size_t j = 0; j < kPanelWidth; ++j) {
      acc[j] += a_p * b_row[j];
    }
  }
}

// LstmStep's gate pre-activations for rows [r0, r1): each product summed
// from +0.0 over ascending p (GemmPackedRowsScalar's chain on a zero-filled
// C), then (xW_x + hW_h) + b.
void LstmGatesScalar(size_t r0, size_t r1, const LstmStepWeights& w,
                     const double* x, const double* h, double* gates) {
  const size_t n = 4 * w.hidden;
  for (size_t j0 = 0; j0 < n; j0 += kPanelWidth) {
    const size_t width = std::min(kPanelWidth, n - j0);
    const size_t panel = j0 / kPanelWidth;
    const double* px = w.wx_packed + panel * w.in_dim * kPanelWidth;
    const double* ph = w.wh_packed + panel * w.hidden * kPanelWidth;
    for (size_t i = r0; i < r1; ++i) {
      double xw[kPanelWidth] = {};
      double hw[kPanelWidth] = {};
      PanelRowScalar(x + i * w.in_dim, w.in_dim, px, xw);
      PanelRowScalar(h + i * w.hidden, w.hidden, ph, hw);
      double* g = gates + i * n + j0;
      for (size_t j = 0; j < width; ++j) {
        g[j] = (xw[j] + hw[j]) + w.bias[j0 + j];
      }
    }
  }
}

// The cell over rows [r0, r1) whose `gates` hold pre-activations, row by
// row in two passes: the four activations and c, then tanh(c) and h.
void LstmCellScalar(size_t r0, size_t r1, size_t hidden, double* gates,
                    const double* c_prev, size_t ldcp, double* h_out,
                    size_t ldh, double* c_out, size_t ldc, double* tanh_c) {
  for (size_t r = r0; r < r1; ++r) {
    double* g_row = gates + r * 4 * hidden;
    const double* cp_row = c_prev + r * ldcp;
    double* c_row = c_out + r * ldc;
    for (size_t j = 0; j < hidden; ++j) {
      const double i = ScalarSigmoid(g_row[j]);
      const double f = ScalarSigmoid(g_row[hidden + j]);
      const double g = std::tanh(g_row[2 * hidden + j]);
      const double o = ScalarSigmoid(g_row[3 * hidden + j]);
      // Mul-then-add in the historical shapes (f*c + i*g; no FMA) so the
      // scalar level reproduces the old per-node graph bit-for-bit.
      const double t1 = f * cp_row[j];
      const double t2 = i * g;
      g_row[j] = i;
      g_row[hidden + j] = f;
      g_row[2 * hidden + j] = g;
      g_row[3 * hidden + j] = o;
      c_row[j] = t1 + t2;
    }
    const double* o_row = g_row + 3 * hidden;
    double* h_row = h_out + r * ldh;
    double* tc_row = tanh_c != nullptr ? tanh_c + r * hidden : nullptr;
    for (size_t j = 0; j < hidden; ++j) {
      const double tc = std::tanh(c_row[j]);
      h_row[j] = o_row[j] * tc;
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

// Rows per block in the row-walking drivers. Each block runs on the calling
// thread, and rows never mix, so the block size changes no result. Even, so
// block boundaries preserve the SIMD kernels' 2-row register tiling.
constexpr size_t kGemmBlockRows = 16;
// Eight rows are two of the AVX2 step's 4-row tiles, and a block of them
// keeps its gate rows in L1 between the products and the cell.
constexpr size_t kLstmBlockRows = 8;

// Runs fn(r0, r1) over [0, rows) in consecutive blocks of `block` rows.
template <typename Fn>
void ForEachRowBlock(size_t rows, size_t block, Fn&& fn) {
  for (size_t r0 = 0; r0 < rows; r0 += block) {
    fn(r0, std::min(r0 + block, rows));
  }
}

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
  if (level >= SimdLevel::kAvx2) {
    avx2::GemmPackedRows(r0, r1, n, k, a, lda, packed, c, ldc);
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

void Gemm(SimdLevel level, size_t m, size_t n, size_t k, const double* a,
          size_t lda, const double* b, size_t ldb, double* c, size_t ldc) {
  if (m == 0 || n == 0) {
    return;
  }
  if (n < kPanelWidth) {
    // Skinny outputs such as head projections, where packing overhead
    // dominates. The cutoff depends only on the operand shapes, never on
    // the batch row count, preserving batched-vs-unbatched bit-identity.
    const GemmRowsNarrowFn narrow = kGemmRowsNarrow[n];
    ForEachRowBlock(m, kGemmBlockRows, [&](size_t r0, size_t r1) {
      narrow(r0, r1, k, a, lda, b, ldb, c, ldc);
    });
    return;
  }
  if (level == SimdLevel::kScalar) {
    ForEachRowBlock(m, kGemmBlockRows, [&](size_t r0, size_t r1) {
      GemmRowsScalar(r0, r1, n, k, a, lda, b, ldb, c, ldc);
    });
    return;
  }
  // Pack B once into zero-padded column panels that every row block reads.
  // The buffer is thread_local so concurrent GEMMs (serve batching,
  // parallel backtest folds, fleet shards) never contend, and its capacity
  // is recycled across calls.
  thread_local std::vector<double> pack_buffer;
  pack_buffer.resize(PackedSize(k, n));
  PackB(k, n, b, ldb, pack_buffer.data());
  const double* packed = pack_buffer.data();
  ForEachRowBlock(m, kGemmBlockRows, [&](size_t r0, size_t r1) {
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
  // Blocks of output rows (columns of A). Within a block the p loop still
  // visits every k index in ascending order per element, so the split
  // changes nothing about any element's accumulation sequence.
  ForEachRowBlock(m, kGemmBlockRows, [&](size_t i0, size_t i1) {
    const size_t rows = i1 - i0;
#if RPAS_KERNELS_HAVE_AVX512
    if (level == SimdLevel::kAvx512) {
      avx512::GemmTN(rows, n, k, a + i0, lda, b, ldb, c + i0 * ldc, ldc);
      return;
    }
#endif
#if RPAS_KERNELS_HAVE_AVX2
    if (level >= SimdLevel::kAvx2) {
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
  ForEachRowBlock(m, kGemmBlockRows, [&](size_t i0, size_t i1) {
    const size_t rows = i1 - i0;
#if RPAS_KERNELS_HAVE_AVX512
    if (level == SimdLevel::kAvx512) {
      avx512::GemmNT(rows, n, k, a + i0 * lda, lda, b, ldb, c + i0 * ldc,
                     ldc);
      return;
    }
#endif
#if RPAS_KERNELS_HAVE_AVX2
    if (level >= SimdLevel::kAvx2) {
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
  if (level >= SimdLevel::kAvx2) {
    avx2::Axpy(n, alpha, x, y);
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
  if (level >= SimdLevel::kAvx2) {
    return avx2::Dot(n, x, y);
  }
#endif
  (void)level;
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += x[i] * y[i];
  }
  return s;
}

double Sum(SimdLevel level, size_t n, const double* x) {
#if RPAS_KERNELS_HAVE_AVX2
  if (level >= SimdLevel::kAvx2) {
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
  if (level >= SimdLevel::kAvx2) {
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
  if (level >= SimdLevel::kAvx2) {
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

void SortAscending(SimdLevel level, size_t n, double* data) {
  if (n < 2) {
    return;
  }
#if RPAS_KERNELS_HAVE_AVX2
  if (level >= SimdLevel::kAvx2 && n <= kSortNetworkMax) {
    avx2::SortAscending(n, data);
    return;
  }
#endif
  (void)level;
  // totalOrder: flipping a negative value's magnitude bits makes signed
  // comparison of the bits order every double.
  auto key = [](double v) {
    const int64_t bits = std::bit_cast<int64_t>(v);
    return bits ^ ((bits >> 63) & INT64_MAX);
  };
  std::sort(data, data + n,
            [&key](double a, double b) { return key(a) < key(b); });
}

void LstmStep(SimdLevel level, size_t batch, const LstmStepWeights& weights,
              const double* x, const double* h_prev, const double* c_prev,
              size_t ldcp, double* gates, double* h_out, size_t ldh,
              double* c_out, size_t ldc, double* tanh_c) {
  const size_t hidden = weights.hidden;
  if (batch == 0 || hidden == 0) {
    return;
  }
  // A block computes its rows' pre-activations and then runs the cell over
  // them, reading only its own rows of h_prev and c_prev: in-place state
  // needs no barrier between the products and the cell.
  ForEachRowBlock(batch, kLstmBlockRows, [&](size_t r0, size_t r1) {
#if RPAS_KERNELS_HAVE_AVX512
    if (level == SimdLevel::kAvx512) {
      avx512::LstmStepRows(r0, r1, weights, x, h_prev, c_prev, ldcp, gates,
                           h_out, ldh, c_out, ldc, tanh_c);
      return;
    }
#endif
#if RPAS_KERNELS_HAVE_AVX2
    if (level >= SimdLevel::kAvx2) {
      avx2::LstmStepRows(r0, r1, weights, x, h_prev, c_prev, ldcp, gates,
                         h_out, ldh, c_out, ldc, tanh_c);
      return;
    }
#endif
    (void)level;
    LstmGatesScalar(r0, r1, weights, x, h_prev, gates);
    LstmCellScalar(r0, r1, hidden, gates, c_prev, ldcp, h_out, ldh, c_out,
                   ldc, tanh_c);
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
  ForEachRowBlock(batch, kLstmBlockRows, [&](size_t r0, size_t r1) {
    const size_t rows = r1 - r0;
    const double* a = act + r0 * 4 * hidden;
    const double* cp = c_prev + r0 * ldcp;
    const double* tc = tanh_c + r0 * hidden;
    const double* dh_p = dh + r0 * ldh;
    const double* dc_p = dc + r0 * ldc;
    double* dg = dgates + r0 * 4 * hidden;
    double* dcp = dc_prev + r0 * hidden;
#if RPAS_KERNELS_HAVE_AVX2
    if (level >= SimdLevel::kAvx2) {
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
