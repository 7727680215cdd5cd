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
#include <cmath>

#include "tensor/kernels.h"

#define RPAS_AVX2_FN __attribute__((target("avx2,fma")))

namespace rpas::tensor::kernels::avx2 {

namespace {

// Mask with the first `live` (0..4) 64-bit lanes enabled.
RPAS_AVX2_FN inline __m256i TailMask(size_t live) {
  const __m256i idx = _mm256_setr_epi64x(0, 1, 2, 3);
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(live)),
                            idx);
}

// Fixed-order horizontal reduction: (v0 + v2) + (v1 + v3).
RPAS_AVX2_FN inline double HSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

// Cephes-style vector exp: Cody–Waite 2-part ln2 reduction + rational
// r*P(r^2) / (Q(r^2) - r*P(r^2)) approximation, 2^n rebuilt via integer ops.
// Inputs are clamped to the finite range; NaN lanes are the caller's job
// (max/min eat NaN), which Tanh4/Sigmoid4 handle with an unordered blend.
RPAS_AVX2_FN inline __m256d Exp4(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d xc = _mm256_max_pd(x, _mm256_set1_pd(-708.396418532264106224));
  xc = _mm256_min_pd(xc, _mm256_set1_pd(709.782712893383996843));
  const __m256d n = _mm256_floor_pd(_mm256_fmadd_pd(
      _mm256_set1_pd(1.4426950408889634073599), xc, _mm256_set1_pd(0.5)));
  __m256d r = _mm256_fnmadd_pd(n, _mm256_set1_pd(6.93145751953125e-1), xc);
  r = _mm256_fnmadd_pd(n, _mm256_set1_pd(1.42860682030941723212e-6), r);
  const __m256d z = _mm256_mul_pd(r, r);
  __m256d p = _mm256_set1_pd(1.26177193074810590878e-4);
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(3.02994407707441961300e-2));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(9.99999999999999999910e-1));
  p = _mm256_mul_pd(p, r);
  __m256d q = _mm256_set1_pd(3.00198505138664455042e-6);
  q = _mm256_fmadd_pd(q, z, _mm256_set1_pd(2.52448340349684104192e-3));
  q = _mm256_fmadd_pd(q, z, _mm256_set1_pd(2.27265548208155028766e-1));
  q = _mm256_fmadd_pd(q, z, _mm256_set1_pd(2.00000000000000000005e0));
  __m256d e = _mm256_div_pd(p, _mm256_sub_pd(q, p));
  e = _mm256_fmadd_pd(_mm256_set1_pd(2.0), e, one);
  const __m128i ni = _mm256_cvtpd_epi32(n);
  const __m256i bits = _mm256_slli_epi64(
      _mm256_add_epi64(_mm256_cvtepi32_epi64(ni), _mm256_set1_epi64x(1023)),
      52);
  return _mm256_mul_pd(e, _mm256_castsi256_pd(bits));
}

// Both branches below end in a division. Each lane selects its branch's
// numerator and denominator first and the vector divides once, so a lane
// performs exactly the division its branch defines, at half the divider
// cost of dividing both ways and blending the quotients.

RPAS_AVX2_FN inline __m256d Tanh4(__m256d x) {
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d ax = _mm256_andnot_pd(sign_bit, x);
  // |x| >= 0.625: 1 - 2/(exp(2|x|) + 1), with the input's sign restored.
  const __m256d e2 = Exp4(_mm256_add_pd(ax, ax));
  // |x| < 0.625: x + x*z*P(z)/Q1(z), z = x^2 (Cephes tanh rational).
  const __m256d z = _mm256_mul_pd(x, x);
  __m256d p = _mm256_set1_pd(-9.64399179425052238628e-1);
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(-9.92877231001918586564e1));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(-1.61468768441708447952e3));
  __m256d q = _mm256_add_pd(z, _mm256_set1_pd(1.12811678491632931402e2));
  q = _mm256_fmadd_pd(q, z, _mm256_set1_pd(2.23548839060100448583e3));
  q = _mm256_fmadd_pd(q, z, _mm256_set1_pd(4.84406305325125486048e3));
  // NaN compares unordered/false, so NaN lanes take the `small` path and
  // propagate through z = x*x.
  const __m256d use_big =
      _mm256_cmp_pd(ax, _mm256_set1_pd(0.625), _CMP_GE_OQ);
  const __m256d quotient = _mm256_div_pd(
      _mm256_blendv_pd(_mm256_mul_pd(_mm256_mul_pd(x, z), p),
                       _mm256_set1_pd(2.0), use_big),
      _mm256_blendv_pd(q, _mm256_add_pd(e2, one), use_big));
  const __m256d big = _mm256_or_pd(_mm256_sub_pd(one, quotient),
                                   _mm256_and_pd(sign_bit, x));
  const __m256d small = _mm256_add_pd(x, quotient);
  return _mm256_blendv_pd(small, big, use_big);
}

// Same sign-split form as the scalar reference: e = exp(-|x|), then
// 1/(1+e) for x >= 0 and e/(1+e) otherwise.
RPAS_AVX2_FN inline __m256d Sigmoid4(__m256d x) {
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d ax = _mm256_andnot_pd(sign_bit, x);
  const __m256d e = Exp4(_mm256_or_pd(ax, sign_bit));
  const __m256d nonneg =
      _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_GE_OQ);
  const __m256d res = _mm256_div_pd(_mm256_blendv_pd(e, one, nonneg),
                                    _mm256_add_pd(one, e));
  // Exp4's range clamp eats NaN; restore propagation.
  const __m256d unord = _mm256_cmp_pd(x, x, _CMP_UNORD_Q);
  return _mm256_blendv_pd(res, x, unord);
}

// Live lanes of p[0..4): a full load, or a masked one on the column tail.
RPAS_AVX2_FN inline __m256d LoadLive(const double* p, bool full, __m256i m) {
  return full ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, m);
}

// Gate pre-activation (xW_x + hW_h) + b: two plain adds in the scalar
// kernel's order, so every lane rounds exactly like the scalar level.
RPAS_AVX2_FN inline __m256d PreActivation(const double* xw, const double* hw,
                                          const double* b, bool full,
                                          __m256i m) {
  return _mm256_add_pd(
      _mm256_add_pd(LoadLive(xw, full, m), LoadLive(hw, full, m)),
      LoadLive(b, full, m));
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

RPAS_AVX2_FN void GemmTN(size_t m, size_t n, size_t k, const double* a,
                         size_t lda, const double* b, size_t ldb, double* c,
                         size_t ldc) {
  // c[i][j] += sum_p a[p][i] * b[p][j], ascending p — register-tiled 2x8
  // with masked edges; B rows are streamed, A is read column-wise.
  for (size_t j0 = 0; j0 < n; j0 += 8) {
    const size_t w = std::min<size_t>(8, n - j0);
    const __m256i m0 = TailMask(std::min<size_t>(w, 4));
    const __m256i m1 = TailMask(w > 4 ? w - 4 : 0);
    const bool full = w == 8;
    size_t i = 0;
    for (; i + 2 <= m; i += 2) {
      double* c0 = c + i * ldc + j0;
      double* c1 = c + (i + 1) * ldc + j0;
      __m256d acc00, acc01, acc10, acc11;
      if (full) {
        acc00 = _mm256_loadu_pd(c0);
        acc01 = _mm256_loadu_pd(c0 + 4);
        acc10 = _mm256_loadu_pd(c1);
        acc11 = _mm256_loadu_pd(c1 + 4);
      } else {
        acc00 = _mm256_maskload_pd(c0, m0);
        acc01 = w > 4 ? _mm256_maskload_pd(c0 + 4, m1) : _mm256_setzero_pd();
        acc10 = _mm256_maskload_pd(c1, m0);
        acc11 = w > 4 ? _mm256_maskload_pd(c1 + 4, m1) : _mm256_setzero_pd();
      }
      for (size_t p = 0; p < k; ++p) {
        const double* b_row = b + p * ldb + j0;
        __m256d b0, b1;
        if (full) {
          b0 = _mm256_loadu_pd(b_row);
          b1 = _mm256_loadu_pd(b_row + 4);
        } else {
          b0 = _mm256_maskload_pd(b_row, m0);
          b1 = w > 4 ? _mm256_maskload_pd(b_row + 4, m1)
                     : _mm256_setzero_pd();
        }
        const double* a_row = a + p * lda;
        __m256d av = _mm256_set1_pd(a_row[i]);
        acc00 = _mm256_fmadd_pd(av, b0, acc00);
        acc01 = _mm256_fmadd_pd(av, b1, acc01);
        av = _mm256_set1_pd(a_row[i + 1]);
        acc10 = _mm256_fmadd_pd(av, b0, acc10);
        acc11 = _mm256_fmadd_pd(av, b1, acc11);
      }
      if (full) {
        _mm256_storeu_pd(c0, acc00);
        _mm256_storeu_pd(c0 + 4, acc01);
        _mm256_storeu_pd(c1, acc10);
        _mm256_storeu_pd(c1 + 4, acc11);
      } else {
        _mm256_maskstore_pd(c0, m0, acc00);
        _mm256_maskstore_pd(c1, m0, acc10);
        if (w > 4) {
          _mm256_maskstore_pd(c0 + 4, m1, acc01);
          _mm256_maskstore_pd(c1 + 4, m1, acc11);
        }
      }
    }
    for (; i < m; ++i) {
      double* c0 = c + i * ldc + j0;
      __m256d acc0, acc1;
      if (full) {
        acc0 = _mm256_loadu_pd(c0);
        acc1 = _mm256_loadu_pd(c0 + 4);
      } else {
        acc0 = _mm256_maskload_pd(c0, m0);
        acc1 = w > 4 ? _mm256_maskload_pd(c0 + 4, m1) : _mm256_setzero_pd();
      }
      for (size_t p = 0; p < k; ++p) {
        const double* b_row = b + p * ldb + j0;
        const __m256d av = _mm256_set1_pd(a[p * lda + i]);
        if (full) {
          acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b_row), acc0);
          acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b_row + 4), acc1);
        } else {
          acc0 = _mm256_fmadd_pd(av, _mm256_maskload_pd(b_row, m0), acc0);
          if (w > 4) {
            acc1 = _mm256_fmadd_pd(av, _mm256_maskload_pd(b_row + 4, m1),
                                   acc1);
          }
        }
      }
      if (full) {
        _mm256_storeu_pd(c0, acc0);
        _mm256_storeu_pd(c0 + 4, acc1);
      } else {
        _mm256_maskstore_pd(c0, m0, acc0);
        if (w > 4) {
          _mm256_maskstore_pd(c0 + 4, m1, acc1);
        }
      }
    }
  }
}

RPAS_AVX2_FN void GemmNT(size_t m, size_t n, size_t k, const double* a,
                         size_t lda, const double* b, size_t ldb, double* c,
                         size_t ldc) {
  // c[i][j] += dot(a_row_i, b_row_j): both operands contiguous over k. Each
  // element reduces with one 4-lane FMA accumulator over the full k-chunks,
  // the fixed HSum, then a scalar fma tail. That order depends only on k, so
  // results are row-count independent. Four output columns share each A
  // load but keep independent accumulators, so their FMA chains overlap
  // while every element's sequence stays the single-column one.
  for (size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * lda;
    double* c_row = c + i * ldc;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + j * ldb;
      const double* b1 = b0 + ldb;
      const double* b2 = b1 + ldb;
      const double* b3 = b2 + ldb;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      size_t p = 0;
      for (; p + 4 <= k; p += 4) {
        const __m256d av = _mm256_loadu_pd(a_row + p);
        acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b0 + p), acc0);
        acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b1 + p), acc1);
        acc2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b2 + p), acc2);
        acc3 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b3 + p), acc3);
      }
      double s0 = HSum(acc0);
      double s1 = HSum(acc1);
      double s2 = HSum(acc2);
      double s3 = HSum(acc3);
      for (; p < k; ++p) {
        s0 = std::fma(a_row[p], b0[p], s0);
        s1 = std::fma(a_row[p], b1[p], s1);
        s2 = std::fma(a_row[p], b2[p], s2);
        s3 = std::fma(a_row[p], b3[p], s3);
      }
      c_row[j] += s0;
      c_row[j + 1] += s1;
      c_row[j + 2] += s2;
      c_row[j + 3] += s3;
    }
    for (; j < n; ++j) {
      const double* b_row = b + j * ldb;
      __m256d acc = _mm256_setzero_pd();
      size_t p = 0;
      for (; p + 4 <= k; p += 4) {
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(a_row + p),
                              _mm256_loadu_pd(b_row + p), acc);
      }
      double s = HSum(acc);
      for (; p < k; ++p) {
        s = std::fma(a_row[p], b_row[p], s);
      }
      c_row[j] += s;
    }
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

RPAS_AVX2_FN void LstmCellForward(size_t batch, size_t hidden, double* gates,
                                  const double* hw, const double* bias,
                                  const double* c_prev, size_t ldcp,
                                  double* h_out, size_t ldh, double* c_out,
                                  size_t ldc, double* tanh_c) {
  for (size_t r = 0; r < batch; ++r) {
    double* g_row = gates + r * 4 * hidden;
    const double* hw_row = hw + r * 4 * hidden;
    const double* cp_row = c_prev + r * ldcp;
    double* h_row = h_out + r * ldh;
    double* c_row = c_out + r * ldc;
    double* tc_row = tanh_c != nullptr ? tanh_c + r * hidden : nullptr;
    for (size_t j = 0; j < hidden; j += 4) {
      const size_t live = std::min<size_t>(4, hidden - j);
      const bool full = live == 4;
      const __m256i m = TailMask(live);
      const __m256d gi =
          PreActivation(g_row + j, hw_row + j, bias + j, full, m);
      const __m256d gf = PreActivation(g_row + hidden + j,
                                       hw_row + hidden + j,
                                       bias + hidden + j, full, m);
      const __m256d gg = PreActivation(g_row + 2 * hidden + j,
                                       hw_row + 2 * hidden + j,
                                       bias + 2 * hidden + j, full, m);
      const __m256d go = PreActivation(g_row + 3 * hidden + j,
                                       hw_row + 3 * hidden + j,
                                       bias + 3 * hidden + j, full, m);
      const __m256d cp = LoadLive(cp_row + j, full, m);
      const __m256d iv = Sigmoid4(gi);
      const __m256d fv = Sigmoid4(gf);
      const __m256d gv = Tanh4(gg);
      const __m256d ov = Sigmoid4(go);
      // f*c + i*g in the scalar shapes (mul, mul, add — no FMA) so the
      // level's parity error stays confined to the transcendentals.
      const __m256d cn =
          _mm256_add_pd(_mm256_mul_pd(fv, cp), _mm256_mul_pd(iv, gv));
      const __m256d tc = Tanh4(cn);
      const __m256d hv = _mm256_mul_pd(ov, tc);
      if (full) {
        _mm256_storeu_pd(g_row + j, iv);
        _mm256_storeu_pd(g_row + hidden + j, fv);
        _mm256_storeu_pd(g_row + 2 * hidden + j, gv);
        _mm256_storeu_pd(g_row + 3 * hidden + j, ov);
        _mm256_storeu_pd(c_row + j, cn);
        _mm256_storeu_pd(h_row + j, hv);
        if (tc_row != nullptr) {
          _mm256_storeu_pd(tc_row + j, tc);
        }
      } else {
        _mm256_maskstore_pd(g_row + j, m, iv);
        _mm256_maskstore_pd(g_row + hidden + j, m, fv);
        _mm256_maskstore_pd(g_row + 2 * hidden + j, m, gv);
        _mm256_maskstore_pd(g_row + 3 * hidden + j, m, ov);
        _mm256_maskstore_pd(c_row + j, m, cn);
        _mm256_maskstore_pd(h_row + j, m, hv);
        if (tc_row != nullptr) {
          _mm256_maskstore_pd(tc_row + j, m, tc);
        }
      }
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

}  // namespace rpas::tensor::kernels::avx2

#endif  // RPAS_KERNELS_HAVE_AVX2
