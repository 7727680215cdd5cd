// AVX2+FMA kernel bodies. Compiled in the baseline build via per-function
// `target` attributes (no -mavx2 translation-unit flags), so the binary stays
// runnable on pre-AVX2 CPUs — dispatch in kernels.cc only routes here after
// __builtin_cpu_supports("avx2")/"fma" both pass.
//
// Accuracy contract: GEMM variants use FMA with the same ascending-p
// per-element accumulation order as the scalar reference (parity bounded by
// the condition-aware ULP tests). exp/tanh/sigmoid are Cephes-style
// polynomial evaluations within a few ULP of libm. The LSTM backward uses
// only mul/add/sub in the scalar expression shapes and is bit-identical to
// the scalar level.

#include "tensor/kernels_internal.h"

#if RPAS_KERNELS_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "tensor/kernels.h"
#include "tensor/kernels_avx2_math.h"

namespace rpas::tensor::kernels::avx2 {

namespace {

// R rows of a (leading dimension k) times the first 4V columns of one
// packed panel over p < k, summed from +0.0 in registers.
template <size_t R, size_t V>
RPAS_AVX2_FN inline void PanelSum(const double* a, size_t k,
                                  const double* panel, __m256d (&acc)[R][V]) {
  for (size_t t = 0; t < R; ++t) {
    for (size_t v = 0; v < V; ++v) {
      acc[t][v] = _mm256_setzero_pd();
    }
  }
  for (size_t p = 0; p < k; ++p) {
    __m256d b[V];
    for (size_t v = 0; v < V; ++v) {
      b[v] = _mm256_loadu_pd(panel + p * kPanelWidth + 4 * v);
    }
    for (size_t t = 0; t < R; ++t) {
      const __m256d av = _mm256_set1_pd(a[t * k + p]);
      for (size_t v = 0; v < V; ++v) {
        acc[t][v] = _mm256_fmadd_pd(av, b[v], acc[t][v]);
      }
    }
  }
}

// Pre-activations of rows [i, i + R) over 4V columns of one panel: x*W_x
// is parked in the output while h*W_h is summed in registers, then
// (hW_h + xW_x) + b, operands in that order (AddInOrder). Each sum starts
// at +0.0, as GemmPackedRows does on a zero-filled C, so the result rounds
// like those two products added.
template <size_t R, size_t V>
RPAS_AVX2_FN inline void GateTile(size_t i, const LstmStepWeights& w,
                                  const double* px, const double* ph,
                                  const double* x, const double* h,
                                  const double* b, double* g, size_t n) {
  __m256d acc[R][V];
  PanelSum<R, V>(x + i * w.in_dim, w.in_dim, px, acc);
  for (size_t t = 0; t < R; ++t) {
    for (size_t v = 0; v < V; ++v) {
      _mm256_storeu_pd(g + (i + t) * n + 4 * v, acc[t][v]);
    }
  }
  PanelSum<R, V>(h + i * w.hidden, w.hidden, ph, acc);
  for (size_t t = 0; t < R; ++t) {
    double* g_row = g + (i + t) * n;
    for (size_t v = 0; v < V; ++v) {
      const __m256d xw = _mm256_loadu_pd(g_row + 4 * v);
      _mm256_storeu_pd(g_row + 4 * v,
                       AddInOrder(AddInOrder(acc[t][v], xw),
                                  _mm256_loadu_pd(b + 4 * v)));
    }
  }
}

// Gate pre-activations of rows [r0, r1), panel by panel: 4-row tiles, then
// single rows with the same per-element sequence.
template <size_t V>
RPAS_AVX2_FN void GatePanel(size_t r0, size_t r1, const LstmStepWeights& w,
                            const double* px, const double* ph,
                            const double* x, const double* h,
                            const double* b, double* g, size_t n) {
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    GateTile<4, V>(i, w, px, ph, x, h, b, g, n);
  }
  for (; i < r1; ++i) {
    GateTile<1, V>(i, w, px, ph, x, h, b, g, n);
  }
}

// 4-row x 8-column register tile over one full packed panel.
RPAS_AVX2_FN void Panel8(size_t r0, size_t r1, size_t k, const double* a,
                         size_t lda, const double* panel, double* c,
                         size_t ldc) {
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    double* c0 = c + i * ldc;
    double* c1 = c + (i + 1) * ldc;
    double* c2 = c + (i + 2) * ldc;
    double* c3 = c + (i + 3) * ldc;
    __m256d acc00 = _mm256_loadu_pd(c0);
    __m256d acc01 = _mm256_loadu_pd(c0 + 4);
    __m256d acc10 = _mm256_loadu_pd(c1);
    __m256d acc11 = _mm256_loadu_pd(c1 + 4);
    __m256d acc20 = _mm256_loadu_pd(c2);
    __m256d acc21 = _mm256_loadu_pd(c2 + 4);
    __m256d acc30 = _mm256_loadu_pd(c3);
    __m256d acc31 = _mm256_loadu_pd(c3 + 4);
    const double* a0 = a + i * lda;
    const double* a1 = a + (i + 1) * lda;
    const double* a2 = a + (i + 2) * lda;
    const double* a3 = a + (i + 3) * lda;
    for (size_t p = 0; p < k; ++p) {
      const __m256d b0 = _mm256_loadu_pd(panel + p * kPanelWidth);
      const __m256d b1 = _mm256_loadu_pd(panel + p * kPanelWidth + 4);
      __m256d av = _mm256_set1_pd(a0[p]);
      acc00 = _mm256_fmadd_pd(av, b0, acc00);
      acc01 = _mm256_fmadd_pd(av, b1, acc01);
      av = _mm256_set1_pd(a1[p]);
      acc10 = _mm256_fmadd_pd(av, b0, acc10);
      acc11 = _mm256_fmadd_pd(av, b1, acc11);
      av = _mm256_set1_pd(a2[p]);
      acc20 = _mm256_fmadd_pd(av, b0, acc20);
      acc21 = _mm256_fmadd_pd(av, b1, acc21);
      av = _mm256_set1_pd(a3[p]);
      acc30 = _mm256_fmadd_pd(av, b0, acc30);
      acc31 = _mm256_fmadd_pd(av, b1, acc31);
    }
    _mm256_storeu_pd(c0, acc00);
    _mm256_storeu_pd(c0 + 4, acc01);
    _mm256_storeu_pd(c1, acc10);
    _mm256_storeu_pd(c1 + 4, acc11);
    _mm256_storeu_pd(c2, acc20);
    _mm256_storeu_pd(c2 + 4, acc21);
    _mm256_storeu_pd(c3, acc30);
    _mm256_storeu_pd(c3 + 4, acc31);
  }
  // Tail rows, one at a time: identical per-element fma sequence, so a row's
  // result does not depend on which kernel variant handled it.
  for (; i < r1; ++i) {
    double* c0 = c + i * ldc;
    __m256d acc0 = _mm256_loadu_pd(c0);
    __m256d acc1 = _mm256_loadu_pd(c0 + 4);
    const double* a0 = a + i * lda;
    for (size_t p = 0; p < k; ++p) {
      const __m256d av = _mm256_set1_pd(a0[p]);
      acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(panel + p * kPanelWidth),
                             acc0);
      acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(panel + p * kPanelWidth + 4),
                             acc1);
    }
    _mm256_storeu_pd(c0, acc0);
    _mm256_storeu_pd(c0 + 4, acc1);
  }
}

// Column-tail panel (w < 8): masked C access; the packed panel itself is
// zero-padded so its loads are always full-width and in-bounds.
RPAS_AVX2_FN void PanelTail(size_t r0, size_t r1, size_t w, size_t k,
                            const double* a, size_t lda, const double* panel,
                            double* c, size_t ldc) {
  const __m256i m0 = TailMask(std::min<size_t>(w, 4));
  const __m256i m1 = TailMask(w > 4 ? w - 4 : 0);
  for (size_t i = r0; i < r1; ++i) {
    double* c0 = c + i * ldc;
    __m256d acc0 = _mm256_maskload_pd(c0, m0);
    __m256d acc1 = w > 4 ? _mm256_maskload_pd(c0 + 4, m1)
                         : _mm256_setzero_pd();
    const double* a0 = a + i * lda;
    for (size_t p = 0; p < k; ++p) {
      const __m256d av = _mm256_set1_pd(a0[p]);
      acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(panel + p * kPanelWidth),
                             acc0);
      acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(panel + p * kPanelWidth + 4),
                             acc1);
    }
    _mm256_maskstore_pd(c0, m0, acc0);
    if (w > 4) {
      _mm256_maskstore_pd(c0 + 4, m1, acc1);
    }
  }
}

}  // namespace

RPAS_AVX2_FN void GemmPackedRows(size_t r0, size_t r1, size_t n, size_t k,
                                 const double* a, size_t lda,
                                 const double* packed, double* c, size_t ldc) {
  for (size_t j0 = 0; j0 < n; j0 += kPanelWidth) {
    const size_t w = std::min(kPanelWidth, n - j0);
    const double* panel = packed + (j0 / kPanelWidth) * k * kPanelWidth;
    if (w == kPanelWidth) {
      Panel8(r0, r1, k, a, lda, panel, c + j0, ldc);
    } else {
      PanelTail(r0, r1, w, k, a, lda, panel, c + j0, ldc);
    }
  }
}

namespace {

// GemmTN over rows [i, i + R) and the w (<= 8) columns at b and c: each
// element's a[p][i] * b[p][j] summed in registers from +0.0 over ascending
// p by FmaInOrder(a, b, sum), then added to C once as C + sum
// (AddInOrder). Off the full path, lanes at or past w load zeros and store
// nothing.
template <size_t R, bool kFull>
RPAS_AVX2_FN inline void TnTile(size_t i, size_t w, size_t k, const double* a,
                                size_t lda, const double* b, size_t ldb,
                                double* c, size_t ldc) {
  const bool wide = kFull || w > 4;
  const __m256i m0 = TailMask(std::min<size_t>(w, 4));
  const __m256i m1 = TailMask(wide ? w - 4 : 0);
  __m256d acc[R][2];
  for (size_t t = 0; t < R; ++t) {
    acc[t][0] = _mm256_setzero_pd();
    acc[t][1] = _mm256_setzero_pd();
  }
  for (size_t p = 0; p < k; ++p) {
    const double* b_row = b + p * ldb;
    const __m256d b0 = LoadLive(b_row, kFull, m0);
    const __m256d b1 =
        wide ? LoadLive(b_row + 4, kFull, m1) : _mm256_setzero_pd();
    const double* a_row = a + p * lda + i;
    for (size_t t = 0; t < R; ++t) {
      const __m256d av = _mm256_set1_pd(a_row[t]);
      acc[t][0] = FmaInOrder(av, b0, acc[t][0]);
      acc[t][1] = FmaInOrder(av, b1, acc[t][1]);
    }
  }
  for (size_t t = 0; t < R; ++t) {
    double* c_row = c + (i + t) * ldc;
    StoreLive(c_row, kFull, m0,
              AddInOrder(LoadLive(c_row, kFull, m0), acc[t][0]));
    if (wide) {
      StoreLive(c_row + 4, kFull, m1,
                AddInOrder(LoadLive(c_row + 4, kFull, m1), acc[t][1]));
    }
  }
}

template <bool kFull>
RPAS_AVX2_FN void TnColumns(size_t m, size_t w, size_t k, const double* a,
                            size_t lda, const double* b, size_t ldb, double* c,
                            size_t ldc) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    TnTile<4, kFull>(i, w, k, a, lda, b, ldb, c, ldc);
  }
  for (; i < m; ++i) {
    TnTile<1, kFull>(i, w, k, a, lda, b, ldb, c, ldc);
  }
}

// GemmNT over rows [i, i + R) and columns [j, j + Q). Each element: one
// 4-lane accumulator from +0.0 over the full 4-chunks of k by
// FmaInOrder(a, b, acc), the fixed HSum, a scalar FmaInOrder tail, then
// C + sum (AddInOrder). That sequence depends only on k, so a tile's shape
// never changes an element; the R rows share each B load and the Q
// columns each A load.
// Forced inline: as its own function GCC zero-fills and spills the
// accumulators through the stack on every tile.
template <size_t R, size_t Q>
RPAS_AVX2_FN inline __attribute__((always_inline)) void NtTile(
    size_t i, size_t j, size_t k, const double* a, size_t lda,
    const double* b, size_t ldb, double* c, size_t ldc) {
  __m256d acc[R][Q];
  for (size_t r = 0; r < R; ++r) {
    for (size_t q = 0; q < Q; ++q) {
      acc[r][q] = _mm256_setzero_pd();
    }
  }
  size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    __m256d av[R];
    for (size_t r = 0; r < R; ++r) {
      av[r] = _mm256_loadu_pd(a + (i + r) * lda + p);
    }
    for (size_t q = 0; q < Q; ++q) {
      const __m256d bv = _mm256_loadu_pd(b + (j + q) * ldb + p);
      for (size_t r = 0; r < R; ++r) {
        acc[r][q] = FmaInOrder(av[r], bv, acc[r][q]);
      }
    }
  }
  double s[R][Q];
  for (size_t r = 0; r < R; ++r) {
    for (size_t q = 0; q < Q; ++q) {
      s[r][q] = HSum(acc[r][q]);
    }
  }
  for (; p < k; ++p) {
    for (size_t r = 0; r < R; ++r) {
      for (size_t q = 0; q < Q; ++q) {
        s[r][q] =
            FmaInOrder(a[(i + r) * lda + p], b[(j + q) * ldb + p], s[r][q]);
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t q = 0; q < Q; ++q) {
      double& c_rq = c[(i + r) * ldc + j + q];
      c_rq = AddInOrder(c_rq, s[r][q]);
    }
  }
}

template <size_t R>
RPAS_AVX2_FN void NtRows(size_t i, size_t n, size_t k, const double* a,
                         size_t lda, const double* b, size_t ldb, double* c,
                         size_t ldc) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    NtTile<R, 4>(i, j, k, a, lda, b, ldb, c, ldc);
  }
  for (; j < n; ++j) {
    NtTile<R, 1>(i, j, k, a, lda, b, ldb, c, ldc);
  }
}

}  // namespace

RPAS_AVX2_FN void GemmTN(size_t m, size_t n, size_t k, const double* a,
                         size_t lda, const double* b, size_t ldb, double* c,
                         size_t ldc) {
  // 4 x 8 register tiles (eight FMA chains) over full column panels, then
  // one masked panel for the n % 8 tail. B rows are streamed, A is read
  // column-wise.
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    TnColumns<true>(m, 8, k, a, lda, b + j, ldb, c + j, ldc);
  }
  if (j < n) {
    TnColumns<false>(m, n - j, k, a, lda, b + j, ldb, c + j, ldc);
  }
}

RPAS_AVX2_FN void GemmNT(size_t m, size_t n, size_t k, const double* a,
                         size_t lda, const double* b, size_t ldb, double* c,
                         size_t ldc) {
  // c[i][j] += dot(a_row_i, b_row_j), both operands contiguous over k: two
  // rows by four columns per pass (eight accumulators), then the row and
  // column tails with the same per-element sequence.
  size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    NtRows<2>(i, n, k, a, lda, b, ldb, c, ldc);
  }
  for (; i < m; ++i) {
    NtRows<1>(i, n, k, a, lda, b, ldb, c, ldc);
  }
}

RPAS_AVX2_FN void Axpy(size_t n, double alpha, const double* x, double* y) {
  const __m256d av = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) {
    y[i] = std::fma(alpha, x[i], y[i]);
  }
}

RPAS_AVX2_FN double Dot(size_t n, const double* x, const double* y) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                           _mm256_loadu_pd(y + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
  }
  double s = HSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    s = std::fma(x[i], y[i], s);
  }
  return s;
}

RPAS_AVX2_FN double Sum(size_t n, const double* x) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(x + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(x + i + 4));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(x + i));
  }
  double s = HSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    s += x[i];
  }
  return s;
}

RPAS_AVX2_FN void EwTanh(size_t n, const double* x, double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, Tanh4(_mm256_loadu_pd(x + i)));
  }
  if (i < n) {
    const __m256i m = TailMask(n - i);
    _mm256_maskstore_pd(out + i, m, Tanh4(_mm256_maskload_pd(x + i, m)));
  }
}

RPAS_AVX2_FN void EwSigmoid(size_t n, const double* x, double* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, Sigmoid4(_mm256_loadu_pd(x + i)));
  }
  if (i < n) {
    const __m256i m = TailMask(n - i);
    _mm256_maskstore_pd(out + i, m, Sigmoid4(_mm256_maskload_pd(x + i, m)));
  }
}

RPAS_AVX2_FN void LstmStepRows(size_t r0, size_t r1, const LstmStepWeights& w,
                               const double* x, const double* h_prev,
                               const double* c_prev, size_t ldcp,
                               double* gates, double* h_out, size_t ldh,
                               double* c_out, size_t ldc, double* tanh_c) {
  const size_t hidden = w.hidden;
  const size_t n = 4 * hidden;
  // n = 4H, so a panel holds 8 live columns or, last, 4.
  for (size_t j0 = 0; j0 < n; j0 += kPanelWidth) {
    const size_t panel = j0 / kPanelWidth;
    const double* px = w.wx_packed + panel * w.in_dim * kPanelWidth;
    const double* ph = w.wh_packed + panel * hidden * kPanelWidth;
    if (n - j0 >= kPanelWidth) {
      GatePanel<2>(r0, r1, w, px, ph, x, h_prev, w.bias + j0, gates + j0, n);
    } else {
      GatePanel<1>(r0, r1, w, px, ph, x, h_prev, w.bias + j0, gates + j0, n);
    }
  }
  // The cell, row by row in two passes: the four activations and c, then
  // tanh(c) and h. A lane's operations are those of the one-pass form;
  // splitting them lets the divisions of neighbouring groups overlap.
  for (size_t r = r0; r < r1; ++r) {
    double* g_row = gates + r * n;
    double* c_row = c_out + r * ldc;
    for (size_t j = 0; j < hidden; j += 4) {
      CellColumns4(g_row, hidden, c_prev + r * ldcp, c_row, j,
                   std::min<size_t>(4, hidden - j));
    }
    double* tc_row = tanh_c != nullptr ? tanh_c + r * hidden : nullptr;
    for (size_t j = 0; j < hidden; j += 4) {
      HiddenColumns4(g_row + 3 * hidden, c_row, h_out + r * ldh, tc_row, j,
                     std::min<size_t>(4, hidden - j));
    }
  }
}

RPAS_AVX2_FN void LstmCellBackward(size_t batch, size_t hidden,
                                   const double* act, const double* c_prev,
                                   size_t ldcp, const double* tanh_c,
                                   const double* dh, size_t ldh,
                                   const double* dc, size_t ldc,
                                   double* dgates, double* dc_prev) {
  const __m256d one = _mm256_set1_pd(1.0);
  for (size_t r = 0; r < batch; ++r) {
    const double* a_row = act + r * 4 * hidden;
    const double* cp_row = c_prev + r * ldcp;
    const double* tc_row = tanh_c + r * hidden;
    const double* dh_row = dh + r * ldh;
    const double* dc_row = dc + r * ldc;
    double* dg_row = dgates + r * 4 * hidden;
    double* dcp_row = dc_prev + r * hidden;
    for (size_t j = 0; j < hidden; j += 4) {
      const size_t live = std::min<size_t>(4, hidden - j);
      const bool full = live == 4;
      const __m256i m = TailMask(live);
      __m256d iv, fv, gv, ov, cp, tc, dhv, dcv;
      if (full) {
        iv = _mm256_loadu_pd(a_row + j);
        fv = _mm256_loadu_pd(a_row + hidden + j);
        gv = _mm256_loadu_pd(a_row + 2 * hidden + j);
        ov = _mm256_loadu_pd(a_row + 3 * hidden + j);
        cp = _mm256_loadu_pd(cp_row + j);
        tc = _mm256_loadu_pd(tc_row + j);
        dhv = _mm256_loadu_pd(dh_row + j);
        dcv = _mm256_loadu_pd(dc_row + j);
      } else {
        iv = _mm256_maskload_pd(a_row + j, m);
        fv = _mm256_maskload_pd(a_row + hidden + j, m);
        gv = _mm256_maskload_pd(a_row + 2 * hidden + j, m);
        ov = _mm256_maskload_pd(a_row + 3 * hidden + j, m);
        cp = _mm256_maskload_pd(cp_row + j, m);
        tc = _mm256_maskload_pd(tc_row + j, m);
        dhv = _mm256_maskload_pd(dh_row + j, m);
        dcv = _mm256_maskload_pd(dc_row + j, m);
      }
      // Pure mul/add/sub in the scalar expression shapes — bit-identical to
      // the scalar backward at every level.
      const __m256d d_o = _mm256_mul_pd(dhv, tc);
      const __m256d d_tc = _mm256_mul_pd(dhv, ov);
      const __m256d d_c = _mm256_add_pd(
          dcv,
          _mm256_mul_pd(d_tc, _mm256_sub_pd(one, _mm256_mul_pd(tc, tc))));
      const __m256d d_f = _mm256_mul_pd(d_c, cp);
      const __m256d d_i = _mm256_mul_pd(d_c, gv);
      const __m256d d_g = _mm256_mul_pd(d_c, iv);
      const __m256d dcp = _mm256_mul_pd(d_c, fv);
      const __m256d dgi = _mm256_mul_pd(_mm256_mul_pd(d_i, iv),
                                        _mm256_sub_pd(one, iv));
      const __m256d dgf = _mm256_mul_pd(_mm256_mul_pd(d_f, fv),
                                        _mm256_sub_pd(one, fv));
      const __m256d dgg =
          _mm256_mul_pd(d_g, _mm256_sub_pd(one, _mm256_mul_pd(gv, gv)));
      const __m256d dgo = _mm256_mul_pd(_mm256_mul_pd(d_o, ov),
                                        _mm256_sub_pd(one, ov));
      if (full) {
        _mm256_storeu_pd(dg_row + j, dgi);
        _mm256_storeu_pd(dg_row + hidden + j, dgf);
        _mm256_storeu_pd(dg_row + 2 * hidden + j, dgg);
        _mm256_storeu_pd(dg_row + 3 * hidden + j, dgo);
        _mm256_storeu_pd(dcp_row + j, dcp);
      } else {
        _mm256_maskstore_pd(dg_row + j, m, dgi);
        _mm256_maskstore_pd(dg_row + hidden + j, m, dgf);
        _mm256_maskstore_pd(dg_row + 2 * hidden + j, m, dgg);
        _mm256_maskstore_pd(dg_row + 3 * hidden + j, m, dgo);
        _mm256_maskstore_pd(dcp_row + j, m, dcp);
      }
    }
  }
}

namespace {

// totalOrder keys of four doubles' bits (SortAscending): a negative value's
// magnitude bits flipped. The map is its own inverse.
RPAS_AVX2_FN inline __m256i TotalOrderKeys(__m256i bits) {
  const __m256i negative = _mm256_cmpgt_epi64(_mm256_setzero_si256(), bits);
  return _mm256_xor_si256(bits, _mm256_srli_epi64(negative, 1));
}

RPAS_AVX2_FN inline __m256i LoadKeys(const int64_t* k) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(k));
}

RPAS_AVX2_FN inline void StoreKeys(int64_t* k, __m256i v) {
  _mm256_store_si256(reinterpret_cast<__m256i*>(k), v);
}

// v with w in the lanes set in `take`, by xor and and (a blendv is two or
// three uops on recent Intel cores).
RPAS_AVX2_FN inline __m256i Select(__m256i v, __m256i w, __m256i take) {
  return _mm256_xor_si256(v, _mm256_and_si256(_mm256_xor_si256(v, w), take));
}

// One network stage inside a vector: each lane meets the lane that kPerm
// moves onto it, and the lanes set in `upper` keep the larger key.
template <int kPerm>
RPAS_AVX2_FN inline __m256i ExchangeLanes(__m256i v, __m256i upper) {
  const __m256i w = _mm256_permute4x64_epi64(v, kPerm);
  return Select(v, w, _mm256_xor_si256(_mm256_cmpgt_epi64(v, w), upper));
}

// One network stage between vectors: k[a] keeps the smaller key of each
// lane pair and k[b] the larger.
RPAS_AVX2_FN inline void ExchangeVectors(int64_t* a, int64_t* b, __m256i x,
                                         __m256i y) {
  const __m256i swap =
      _mm256_and_si256(_mm256_xor_si256(x, y), _mm256_cmpgt_epi64(x, y));
  StoreKeys(a, _mm256_xor_si256(x, swap));
  StoreKeys(b, _mm256_xor_si256(y, swap));
}

// Bitonic sort of p keys (a power of two, 4 <= p <= kSortNetworkMax) in
// the form whose every stage puts the smaller key first: a merge of two
// sorted runs compares each key of the first with its mirror in the
// second, then halves the distance down to neighbours.
RPAS_AVX2_FN void SortKeys(int64_t* k, size_t p) {
  constexpr int kSwap1 = _MM_SHUFFLE(2, 3, 0, 1);
  constexpr int kSwap2 = _MM_SHUFFLE(1, 0, 3, 2);
  constexpr int kReverse = _MM_SHUFFLE(0, 1, 2, 3);
  const __m256i odd = _mm256_setr_epi64x(0, -1, 0, -1);
  const __m256i high = _mm256_setr_epi64x(0, 0, -1, -1);
  for (size_t i = 0; i < p; i += 4) {
    __m256i v = ExchangeLanes<kSwap1>(LoadKeys(k + i), odd);
    v = ExchangeLanes<kReverse>(v, high);
    StoreKeys(k + i, ExchangeLanes<kSwap1>(v, odd));
  }
  for (size_t run = 8; run <= p; run *= 2) {
    for (size_t b = 0; b < p; b += run) {
      for (size_t t = 0; t < run / 2; t += 4) {
        int64_t* lo = k + b + t;
        int64_t* hi = k + b + run - 4 - t;
        const __m256i x = LoadKeys(lo);
        const __m256i y = _mm256_permute4x64_epi64(LoadKeys(hi), kReverse);
        const __m256i swap = _mm256_and_si256(_mm256_xor_si256(x, y),
                                              _mm256_cmpgt_epi64(x, y));
        StoreKeys(lo, _mm256_xor_si256(x, swap));
        StoreKeys(hi, _mm256_permute4x64_epi64(_mm256_xor_si256(y, swap),
                                               kReverse));
      }
    }
    for (size_t j = run / 4; j >= 4; j /= 2) {
      for (size_t i = 0; i < p; i += 2 * j) {
        for (size_t t = i; t < i + j; t += 4) {
          ExchangeVectors(k + t, k + t + j, LoadKeys(k + t),
                          LoadKeys(k + t + j));
        }
      }
    }
    for (size_t i = 0; i < p; i += 4) {
      const __m256i v = ExchangeLanes<kSwap2>(LoadKeys(k + i), high);
      StoreKeys(k + i, ExchangeLanes<kSwap1>(v, odd));
    }
  }
}

}  // namespace

RPAS_AVX2_FN void SortAscending(size_t n, double* data) {
  alignas(32) int64_t keys[kSortNetworkMax];
  const size_t p = std::bit_ceil(std::max<size_t>(n, 4));
  const __m256i pad = _mm256_set1_epi64x(INT64_MAX);
  for (size_t i = 0; i < p; i += 4) {
    __m256i v = pad;
    if (i < n) {
      const __m256i m = TailMask(n - i);
      const __m256i bits =
          _mm256_castpd_si256(LoadLive(data + i, n - i >= 4, m));
      v = _mm256_blendv_epi8(pad, TotalOrderKeys(bits), m);
    }
    StoreKeys(keys + i, v);
  }
  SortKeys(keys, p);
  for (size_t i = 0; i < n; i += 4) {
    StoreLive(data + i, n - i >= 4, TailMask(n - i),
              _mm256_castsi256_pd(TotalOrderKeys(LoadKeys(keys + i))));
  }
}

}  // namespace rpas::tensor::kernels::avx2

#endif  // RPAS_KERNELS_HAVE_AVX2
