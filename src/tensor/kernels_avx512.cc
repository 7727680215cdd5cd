// AVX-512 bodies of the fused LSTM step and of the transposed GEMMs
// (GemmTN, GemmNT). Compiled like kernels_avx2.cc, through per-function
// `target` attributes, and reached only at SimdLevel::kAvx512, which
// dispatch in kernels.cc selects after __builtin_cpu_supports("avx512f")
// passes. Every other kernel runs its AVX2 body at that level.
//
// Bit-identity contract: every output equals the AVX2 level's byte for
// byte. Each lane runs the AVX2 body's operation sequence: Exp8, Sigmoid8
// and Tanh8 are Exp4, Sigmoid4 and Tanh4 eight lanes wide (Exp8 scales by
// 2^n in one instruction, with the same results); the gate products sum
// each element by FMA from +0.0 over ascending p and form
// (hW_h + xW_x) + b; the cell keeps its mul/add shapes; the transposed
// GEMMs keep each element's FMA chain, HSum, scalar tail and add into C;
// and each add, product or FMA that can meet two NaNs pins its operand
// order as the AVX2 body does. The bitwise and/or/andnot run in the
// integer domain. A row's last 1-4 hidden columns, GemmNT's HSum and tail
// and its odd last row run through the AVX2 body's own functions on ymm
// and xmm (kernels_avx2_math.h), so the function target adds avx2,fma to
// avx512f; dispatch already requires both.

#include "tensor/kernels_internal.h"

#if RPAS_KERNELS_HAVE_AVX512

// GCC 12's AVX-512 intrinsics seed their results from a self-initialised
// "undefined" vector, which -Wmaybe-uninitialized reports inside the header
// at every use (GCC bug 105593, fixed in GCC 13).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <algorithm>

#include "tensor/kernels.h"
#include "tensor/kernels_avx2_math.h"

#define RPAS_AVX512_FN __attribute__((target("avx512f,avx2,fma")))

namespace rpas::tensor::kernels::avx512 {

namespace {

// Mask with the first `live` (0..8) lanes enabled.
RPAS_AVX512_FN inline __mmask8 LiveMask(size_t live) {
  return static_cast<__mmask8>((1u << live) - 1u);
}

RPAS_AVX512_FN inline __m512d And(__m512d a, __m512d b) {
  return _mm512_castsi512_pd(
      _mm512_and_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
}

// ~a & b.
RPAS_AVX512_FN inline __m512d AndNot(__m512d a, __m512d b) {
  return _mm512_castsi512_pd(
      _mm512_andnot_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
}

RPAS_AVX512_FN inline __m512d Or(__m512d a, __m512d b) {
  return _mm512_castsi512_pd(
      _mm512_or_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
}

// Exp4 (kernels_avx2_math.h) on eight lanes: the same clamp, Cody–Waite
// reduction and rational approximation, with e * 2^n in one vscalefpd.
// Where 2^n is a normal double that equals Exp4's product with the
// integer-built 2^n; Exp4 builds +Inf at n = 1024, which vscalefpd does
// not.
RPAS_AVX512_FN inline __m512d Exp8(__m512d x) {
  const __m512d one = _mm512_set1_pd(1.0);
  __m512d xc = _mm512_max_pd(x, _mm512_set1_pd(-708.396418532264106224));
  xc = _mm512_min_pd(xc, _mm512_set1_pd(709.782712893383996843));
  const __m512d n = _mm512_roundscale_pd(
      _mm512_fmadd_pd(_mm512_set1_pd(1.4426950408889634073599), xc,
                      _mm512_set1_pd(0.5)),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  __m512d r = _mm512_fnmadd_pd(n, _mm512_set1_pd(6.93145751953125e-1), xc);
  r = _mm512_fnmadd_pd(n, _mm512_set1_pd(1.42860682030941723212e-6), r);
  const __m512d z = _mm512_mul_pd(r, r);
  __m512d p = _mm512_set1_pd(1.26177193074810590878e-4);
  p = _mm512_fmadd_pd(p, z, _mm512_set1_pd(3.02994407707441961300e-2));
  p = _mm512_fmadd_pd(p, z, _mm512_set1_pd(9.99999999999999999910e-1));
  p = _mm512_mul_pd(p, r);
  __m512d q = _mm512_set1_pd(3.00198505138664455042e-6);
  q = _mm512_fmadd_pd(q, z, _mm512_set1_pd(2.52448340349684104192e-3));
  q = _mm512_fmadd_pd(q, z, _mm512_set1_pd(2.27265548208155028766e-1));
  q = _mm512_fmadd_pd(q, z, _mm512_set1_pd(2.00000000000000000005e0));
  __m512d e = _mm512_div_pd(p, _mm512_sub_pd(q, p));
  e = _mm512_fmadd_pd(_mm512_set1_pd(2.0), e, one);
  return _mm512_scalef_pd(e, n);
}

// Tanh4 on eight lanes: each lane picks its branch's numerator and
// denominator and the vector divides once. Where Tanh4's e2 is +Inf (n =
// 1024) this e2 may be finite, near DBL_MAX, and 1 - 2/(e2 + 1) still
// rounds to 1.
RPAS_AVX512_FN inline __m512d Tanh8(__m512d x) {
  const __m512d sign_bit = _mm512_set1_pd(-0.0);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d ax = AndNot(sign_bit, x);
  const __m512d e2 = Exp8(_mm512_add_pd(ax, ax));
  const __m512d z = _mm512_mul_pd(x, x);
  __m512d p = _mm512_set1_pd(-9.64399179425052238628e-1);
  p = _mm512_fmadd_pd(p, z, _mm512_set1_pd(-9.92877231001918586564e1));
  p = _mm512_fmadd_pd(p, z, _mm512_set1_pd(-1.61468768441708447952e3));
  __m512d q = _mm512_add_pd(z, _mm512_set1_pd(1.12811678491632931402e2));
  q = _mm512_fmadd_pd(q, z, _mm512_set1_pd(2.23548839060100448583e3));
  q = _mm512_fmadd_pd(q, z, _mm512_set1_pd(4.84406305325125486048e3));
  // NaN compares false, so NaN lanes take the `small` path.
  const __mmask8 use_big =
      _mm512_cmp_pd_mask(ax, _mm512_set1_pd(0.625), _CMP_GE_OQ);
  const __m512d quotient = _mm512_div_pd(
      _mm512_mask_blend_pd(use_big, _mm512_mul_pd(_mm512_mul_pd(x, z), p),
                           _mm512_set1_pd(2.0)),
      _mm512_mask_blend_pd(use_big, q, _mm512_add_pd(e2, one)));
  const __m512d big =
      Or(_mm512_sub_pd(one, quotient), And(sign_bit, x));
  const __m512d small = _mm512_add_pd(x, quotient);
  return _mm512_mask_blend_pd(use_big, small, big);
}

// MulInOrder and AddInOrder (kernels_avx2_math.h) on eight lanes.
RPAS_AVX512_FN inline __m512d MulInOrder8(__m512d a, __m512d b) {
  __m512d r;
  asm("vmulpd %2, %1, %0" : "=v"(r) : "v"(a), "vm"(b));
  return r;
}

RPAS_AVX512_FN inline __m512d AddInOrder8(__m512d a, __m512d b) {
  __m512d r;
  asm("vaddpd %2, %1, %0" : "=v"(r) : "v"(a), "vm"(b));
  return r;
}

// FmaInOrder (kernels_avx2_math.h) on eight lanes: a * b + c.
RPAS_AVX512_FN inline __m512d FmaInOrder8(__m512d a, __m512d b, __m512d c) {
  asm("vfmadd231pd %2, %1, %0" : "+v"(c) : "v"(a), "vm"(b));
  return c;
}

// Sigmoid4 on eight lanes: e = exp(-|x|), then 1/(1+e) for x >= 0 and
// e/(1+e) otherwise, with NaN lanes passed through.
RPAS_AVX512_FN inline __m512d Sigmoid8(__m512d x) {
  const __m512d one = _mm512_set1_pd(1.0);
  // -|x| is x with its sign bit set.
  const __m512d e = Exp8(Or(x, _mm512_set1_pd(-0.0)));
  const __mmask8 nonneg =
      _mm512_cmp_pd_mask(x, _mm512_setzero_pd(), _CMP_GE_OQ);
  const __m512d res = _mm512_div_pd(_mm512_mask_blend_pd(nonneg, e, one),
                                    _mm512_add_pd(one, e));
  const __mmask8 unord = _mm512_cmp_pd_mask(x, x, _CMP_UNORD_Q);
  return _mm512_mask_blend_pd(unord, res, x);
}

// R rows of a (leading dimension k) times V consecutive packed panels
// (panel stride k * kPanelWidth) over p < k, each element summed from +0.0
// by FMA. The pragmas unroll the tile loops at every optimisation level:
// at -O2 GCC 12 keeps them rolled with the accumulators on the stack.
template <size_t R, size_t V>
RPAS_AVX512_FN inline __attribute__((always_inline)) void PanelSum(
    const double* a, size_t k, const double* panels, __m512d (&acc)[R][V]) {
  const size_t stride = k * kPanelWidth;
#pragma GCC unroll 8
  for (size_t t = 0; t < R; ++t) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      acc[t][v] = _mm512_setzero_pd();
    }
  }
  for (size_t p = 0; p < k; ++p) {
    __m512d b[V];
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      b[v] = _mm512_loadu_pd(panels + v * stride + p * kPanelWidth);
    }
#pragma GCC unroll 8
    for (size_t t = 0; t < R; ++t) {
      const __m512d av = _mm512_set1_pd(a[t * k + p]);
#pragma GCC unroll 2
      for (size_t v = 0; v < V; ++v) {
        acc[t][v] = _mm512_fmadd_pd(av, b[v], acc[t][v]);
      }
    }
  }
}

// Pre-activations of rows [i, i + R) over V panels: x*W_x and h*W_h are
// each summed in registers, then (hW_h + xW_x) + b in the AVX2 body's
// operand order. `last` masks the live columns of the final panel (4 of 8
// when it is the half-width last panel of an odd H).
template <size_t R, size_t V>
RPAS_AVX512_FN inline __attribute__((always_inline)) void GateTile(
    size_t i, const LstmStepWeights& w, const double* px, const double* ph,
    const double* x, const double* h, const double* b, double* g, size_t n,
    __mmask8 last) {
  __m512d xw[R][V], hw[R][V];
  PanelSum<R, V>(x + i * w.in_dim, w.in_dim, px, xw);
  PanelSum<R, V>(h + i * w.hidden, w.hidden, ph, hw);
#pragma GCC unroll 8
  for (size_t t = 0; t < R; ++t) {
    double* g_row = g + (i + t) * n;
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      const __mmask8 m = v + 1 == V ? last : __mmask8{0xFF};
      const __m512d bias = _mm512_maskz_loadu_pd(m, b + kPanelWidth * v);
      _mm512_mask_storeu_pd(
          g_row + kPanelWidth * v, m,
          AddInOrder8(AddInOrder8(hw[t][v], xw[t][v]), bias));
    }
  }
}

// V panels starting at column j0 for rows [r0, r1): 4-row tiles, then
// single rows with the same per-element sequence.
template <size_t V>
RPAS_AVX512_FN void GatePanels(size_t r0, size_t r1, size_t j0,
                               const LstmStepWeights& w, const double* x,
                               const double* h, double* gates, size_t n,
                               __mmask8 last) {
  const size_t panel = j0 / kPanelWidth;
  const double* px = w.wx_packed + panel * w.in_dim * kPanelWidth;
  const double* ph = w.wh_packed + panel * w.hidden * kPanelWidth;
  const double* b = w.bias + j0;
  double* g = gates + j0;
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    GateTile<4, V>(i, w, px, ph, x, h, b, g, n, last);
  }
  for (; i < r1; ++i) {
    GateTile<1, V>(i, w, px, ph, x, h, b, g, n, last);
  }
}

// Live lanes of p[0..8): a full load, or a masked one that zeroes the
// rest.
RPAS_AVX512_FN inline __m512d LoadLive8(const double* p, bool full,
                                        __mmask8 m) {
  return full ? _mm512_loadu_pd(p) : _mm512_maskz_loadu_pd(m, p);
}

// Stores the live lanes of v to p[0..8).
RPAS_AVX512_FN inline void StoreLive8(double* p, bool full, __mmask8 m,
                                      __m512d v) {
  if (full) {
    _mm512_storeu_pd(p, v);
  } else {
    _mm512_mask_storeu_pd(p, m, v);
  }
}

// GemmTN over rows [i, i + R) and the w (<= 16) columns at b and c: the
// AVX2 TnTile's per-element sequence, sixteen columns wide. Off the full
// path, lanes at or past w load zeros and store nothing.
template <size_t R, bool kFull>
RPAS_AVX512_FN inline void TnTile(size_t i, size_t w, size_t k,
                                  const double* a, size_t lda,
                                  const double* b, size_t ldb, double* c,
                                  size_t ldc) {
  const bool wide = kFull || w > 8;
  const __mmask8 m0 = LiveMask(std::min<size_t>(w, 8));
  const __mmask8 m1 = LiveMask(wide ? w - 8 : 0);
  __m512d acc[R][2];
  for (size_t t = 0; t < R; ++t) {
    acc[t][0] = _mm512_setzero_pd();
    acc[t][1] = _mm512_setzero_pd();
  }
  for (size_t p = 0; p < k; ++p) {
    const double* b_row = b + p * ldb;
    const __m512d b0 = LoadLive8(b_row, kFull, m0);
    const __m512d b1 =
        wide ? LoadLive8(b_row + 8, kFull, m1) : _mm512_setzero_pd();
    const double* a_row = a + p * lda + i;
    for (size_t t = 0; t < R; ++t) {
      const __m512d av = _mm512_set1_pd(a_row[t]);
      acc[t][0] = FmaInOrder8(av, b0, acc[t][0]);
      acc[t][1] = FmaInOrder8(av, b1, acc[t][1]);
    }
  }
  for (size_t t = 0; t < R; ++t) {
    double* c_row = c + (i + t) * ldc;
    StoreLive8(c_row, kFull, m0,
               AddInOrder8(LoadLive8(c_row, kFull, m0), acc[t][0]));
    if (wide) {
      StoreLive8(c_row + 8, kFull, m1,
                 AddInOrder8(LoadLive8(c_row + 8, kFull, m1), acc[t][1]));
    }
  }
}

template <bool kFull>
RPAS_AVX512_FN void TnColumns(size_t m, size_t w, size_t k, const double* a,
                              size_t lda, const double* b, size_t ldb,
                              double* c, size_t ldc) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    TnTile<4, kFull>(i, w, k, a, lda, b, ldb, c, ldc);
  }
  for (; i < m; ++i) {
    TnTile<1, kFull>(i, w, k, a, lda, b, ldb, c, ldc);
  }
}

// GemmNT over rows i, i + 1 and columns [j, j + Q). Each zmm holds row i's
// AVX2 4-lane accumulator in its low half and row i + 1's in its high
// half: the rows' k-chunks are joined by vinsertf64x4 and a B chunk is
// broadcast to both halves, so every lane runs NtTile's FMA chain. Each
// half then takes NtTile's HSum, scalar fma tail and add into C.
template <size_t Q>
RPAS_AVX512_FN inline __attribute__((always_inline)) void NtPairTile(
    size_t i, size_t j, size_t k, const double* a, size_t lda,
    const double* b, size_t ldb, double* c, size_t ldc) {
  const double* a_rows[2] = {a + i * lda, a + (i + 1) * lda};
  __m512d acc[Q];
  for (size_t q = 0; q < Q; ++q) {
    acc[q] = _mm512_setzero_pd();
  }
  size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const __m512d av = _mm512_insertf64x4(
        _mm512_castpd256_pd512(_mm256_loadu_pd(a_rows[0] + p)),
        _mm256_loadu_pd(a_rows[1] + p), 1);
    for (size_t q = 0; q < Q; ++q) {
      const __m512d bv =
          _mm512_broadcast_f64x4(_mm256_loadu_pd(b + (j + q) * ldb + p));
      acc[q] = FmaInOrder8(av, bv, acc[q]);
    }
  }
  double s[2][Q];
  for (size_t q = 0; q < Q; ++q) {
    s[0][q] = avx2::HSum(_mm512_castpd512_pd256(acc[q]));
    s[1][q] = avx2::HSum(_mm512_extractf64x4_pd(acc[q], 1));
  }
  for (; p < k; ++p) {
    for (size_t r = 0; r < 2; ++r) {
      for (size_t q = 0; q < Q; ++q) {
        s[r][q] =
            avx2::FmaInOrder(a_rows[r][p], b[(j + q) * ldb + p], s[r][q]);
      }
    }
  }
  for (size_t r = 0; r < 2; ++r) {
    for (size_t q = 0; q < Q; ++q) {
      double& c_rq = c[(i + r) * ldc + j + q];
      c_rq = avx2::AddInOrder(c_rq, s[r][q]);
    }
  }
}

}  // namespace

RPAS_AVX512_FN void GemmTN(size_t m, size_t n, size_t k, const double* a,
                           size_t lda, const double* b, size_t ldb, double* c,
                           size_t ldc) {
  // 4 x 16 register tiles (eight FMA chains), then one masked 16-column
  // block for the n % 16 tail.
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    TnColumns<true>(m, 16, k, a, lda, b + j, ldb, c + j, ldc);
  }
  if (j < n) {
    TnColumns<false>(m, n - j, k, a, lda, b + j, ldb, c + j, ldc);
  }
}

RPAS_AVX512_FN void GemmNT(size_t m, size_t n, size_t k, const double* a,
                           size_t lda, const double* b, size_t ldb, double* c,
                           size_t ldc) {
  // Row pairs by eight columns (eight zmm accumulators), then four, then
  // the column tail one at a time; an odd last row runs the AVX2 body.
  size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      NtPairTile<8>(i, j, k, a, lda, b, ldb, c, ldc);
    }
    for (; j + 4 <= n; j += 4) {
      NtPairTile<4>(i, j, k, a, lda, b, ldb, c, ldc);
    }
    for (; j < n; ++j) {
      NtPairTile<1>(i, j, k, a, lda, b, ldb, c, ldc);
    }
  }
  if (i < m) {
    avx2::GemmNT(1, n, k, a + i * lda, lda, b, ldb, c + i * ldc, ldc);
  }
}

RPAS_AVX512_FN void LstmStepRows(size_t r0, size_t r1,
                                 const LstmStepWeights& w, const double* x,
                                 const double* h_prev, const double* c_prev,
                                 size_t ldcp, double* gates, double* h_out,
                                 size_t ldh, double* c_out, size_t ldc,
                                 double* tanh_c) {
  const size_t hidden = w.hidden;
  const size_t n = 4 * hidden;
  // n = 4H, so the last panel holds 8 live columns or, for odd H, 4.
  const size_t panels = (n + kPanelWidth - 1) / kPanelWidth;
  const __mmask8 last = LiveMask(n - (panels - 1) * kPanelWidth);
  size_t j0 = 0;
  for (; j0 + 2 * kPanelWidth < n; j0 += 2 * kPanelWidth) {
    GatePanels<2>(r0, r1, j0, w, x, h_prev, gates, n, 0xFF);
  }
  if (n - j0 > kPanelWidth) {
    GatePanels<2>(r0, r1, j0, w, x, h_prev, gates, n, last);
  } else {
    GatePanels<1>(r0, r1, j0, w, x, h_prev, gates, n, last);
  }
  // The cell, row by row in the AVX2 body's two passes: the four
  // activations and c, then tanh(c) and h, eight lanes per group while
  // more than four columns remain; the last 1-4 run the AVX2 columns.
  for (size_t r = r0; r < r1; ++r) {
    double* g_row = gates + r * n;
    const double* cp_row = c_prev + r * ldcp;
    double* c_row = c_out + r * ldc;
    size_t j = 0;
    for (; j + 4 < hidden; j += 8) {
      const __mmask8 m = LiveMask(std::min<size_t>(8, hidden - j));
      const __m512d iv = Sigmoid8(_mm512_maskz_loadu_pd(m, g_row + j));
      const __m512d fv =
          Sigmoid8(_mm512_maskz_loadu_pd(m, g_row + hidden + j));
      const __m512d gv =
          Tanh8(_mm512_maskz_loadu_pd(m, g_row + 2 * hidden + j));
      const __m512d ov =
          Sigmoid8(_mm512_maskz_loadu_pd(m, g_row + 3 * hidden + j));
      // f*c + i*g as mul, mul, add — no FMA, as at AVX2.
      const __m512d cn = AddInOrder8(
          MulInOrder8(fv, _mm512_maskz_loadu_pd(m, cp_row + j)),
          MulInOrder8(iv, gv));
      _mm512_mask_storeu_pd(g_row + j, m, iv);
      _mm512_mask_storeu_pd(g_row + hidden + j, m, fv);
      _mm512_mask_storeu_pd(g_row + 2 * hidden + j, m, gv);
      _mm512_mask_storeu_pd(g_row + 3 * hidden + j, m, ov);
      _mm512_mask_storeu_pd(c_row + j, m, cn);
    }
    if (j < hidden) {
      avx2::CellColumns4(g_row, hidden, cp_row, c_row, j, hidden - j);
    }
    const double* o_row = g_row + 3 * hidden;
    double* h_row = h_out + r * ldh;
    double* tc_row = tanh_c != nullptr ? tanh_c + r * hidden : nullptr;
    for (j = 0; j + 4 < hidden; j += 8) {
      const __mmask8 m = LiveMask(std::min<size_t>(8, hidden - j));
      const __m512d tc = Tanh8(_mm512_maskz_loadu_pd(m, c_row + j));
      _mm512_mask_storeu_pd(
          h_row + j, m,
          MulInOrder8(_mm512_maskz_loadu_pd(m, o_row + j), tc));
      if (tc_row != nullptr) {
        _mm512_mask_storeu_pd(tc_row + j, m, tc);
      }
    }
    if (j < hidden) {
      avx2::HiddenColumns4(o_row, c_row, h_row, tc_row, j, hidden - j);
    }
  }
}

}  // namespace rpas::tensor::kernels::avx512

#endif  // RPAS_KERNELS_HAVE_AVX512
