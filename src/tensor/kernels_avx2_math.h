#ifndef RPAS_TENSOR_KERNELS_AVX2_MATH_H_
#define RPAS_TENSOR_KERNELS_AVX2_MATH_H_

// The AVX2+FMA vector math, LSTM cell columns and pinned arithmetic,
// shared by kernels_avx2.cc and by kernels_avx512.cc, whose step runs a
// row's last 1-4 hidden columns through these same functions on ymm and
// whose GemmNT reduces each half of a zmm with HSum. Every function
// carries the avx2,fma target, so a caller's target must include both.
// Not for use outside src/tensor.

#include "tensor/kernels_internal.h"

#if RPAS_KERNELS_HAVE_AVX2

#include <immintrin.h>

#include <cstddef>

#define RPAS_AVX2_FN __attribute__((target("avx2,fma")))

namespace rpas::tensor::kernels::avx2 {

// Mask with the first `live` (0..4) 64-bit lanes enabled.
RPAS_AVX2_FN inline __m256i TailMask(size_t live) {
  const __m256i idx = _mm256_setr_epi64x(0, 1, 2, 3);
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(live)),
                            idx);
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

// Stores the live lanes of v to p[0..4).
RPAS_AVX2_FN inline void StoreLive(double* p, bool full, __m256i m,
                                   __m256d v) {
  if (full) {
    _mm256_storeu_pd(p, v);
  } else {
    _mm256_maskstore_pd(p, m, v);
  }
}

// a * b and a + b with a as the instruction's first source. Where both
// operands are NaN, x86 returns the first source's NaN; the compiler may
// commute a written product or sum, so the cell, HSum and the transposed
// GEMMs' adds into C pin the order and a lane keeps the same NaN in the
// AVX2 and AVX-512 bodies.
RPAS_AVX2_FN inline __m256d MulInOrder(__m256d a, __m256d b) {
  __m256d r;
  asm("vmulpd %2, %1, %0" : "=v"(r) : "v"(a), "vm"(b));
  return r;
}

RPAS_AVX2_FN inline __m256d AddInOrder(__m256d a, __m256d b) {
  __m256d r;
  asm("vaddpd %2, %1, %0" : "=v"(r) : "v"(a), "vm"(b));
  return r;
}

RPAS_AVX2_FN inline __m128d AddInOrder(__m128d a, __m128d b) {
  __m128d r;
  asm("vaddpd %2, %1, %0" : "=x"(r) : "x"(a), "xm"(b));
  return r;
}

RPAS_AVX2_FN inline double AddInOrder(double a, double b) {
  double r;
  asm("vaddsd %2, %1, %0" : "=x"(r) : "x"(a), "xm"(b));
  return r;
}

// a * b + c in one rounding, as vfmadd231 with c in the destination. Where
// several operands are NaN, x86 returns the first NaN of a, b, c in that
// order, and the compiler may swap the factors or pick another vfmadd
// form, so the transposed GEMMs pin it and a lane keeps the same NaN in
// the AVX2 and AVX-512 bodies.
RPAS_AVX2_FN inline __m256d FmaInOrder(__m256d a, __m256d b, __m256d c) {
  asm("vfmadd231pd %2, %1, %0" : "+v"(c) : "v"(a), "vm"(b));
  return c;
}

RPAS_AVX2_FN inline double FmaInOrder(double a, double b, double c) {
  asm("vfmadd231sd %2, %1, %0" : "+x"(c) : "x"(a), "xm"(b));
  return c;
}

// Fixed-order horizontal reduction: (v2 + v0) + (v3 + v1), each add's
// operands pinned in the order GCC gave the unpinned form.
RPAS_AVX2_FN inline double HSum(__m256d v) {
  const __m128d s =
      AddInOrder(_mm256_extractf128_pd(v, 1), _mm256_castpd256_pd128(v));
  return AddInOrder(_mm_cvtsd_f64(s), _mm_cvtsd_f64(_mm_unpackhi_pd(s, s)));
}

// The cell's first pass over hidden columns [j, j + live) of one row
// (live 1..4): the four activations replace their pre-activations in
// g_row, and c_row gets f*c_prev + i*g.
RPAS_AVX2_FN inline __attribute__((always_inline)) void CellColumns4(
    double* g_row, size_t hidden, const double* cp_row, double* c_row,
    size_t j, size_t live) {
  const bool full = live == 4;
  const __m256i m = TailMask(live);
  const __m256d iv = Sigmoid4(LoadLive(g_row + j, full, m));
  const __m256d fv = Sigmoid4(LoadLive(g_row + hidden + j, full, m));
  const __m256d gv = Tanh4(LoadLive(g_row + 2 * hidden + j, full, m));
  const __m256d ov = Sigmoid4(LoadLive(g_row + 3 * hidden + j, full, m));
  // f*c + i*g in the scalar shapes (mul, mul, add — no FMA) so the
  // level's parity error stays confined to the transcendentals.
  const __m256d cn =
      AddInOrder(MulInOrder(fv, LoadLive(cp_row + j, full, m)),
                 MulInOrder(iv, gv));
  StoreLive(g_row + j, full, m, iv);
  StoreLive(g_row + hidden + j, full, m, fv);
  StoreLive(g_row + 2 * hidden + j, full, m, gv);
  StoreLive(g_row + 3 * hidden + j, full, m, ov);
  StoreLive(c_row + j, full, m, cn);
}

// The cell's second pass over the same columns: h = o * tanh(c), and
// tanh(c) itself when tc_row is not null.
RPAS_AVX2_FN inline __attribute__((always_inline)) void HiddenColumns4(
    const double* o_row, const double* c_row, double* h_row, double* tc_row,
    size_t j, size_t live) {
  const bool full = live == 4;
  const __m256i m = TailMask(live);
  const __m256d tc = Tanh4(LoadLive(c_row + j, full, m));
  StoreLive(h_row + j, full, m, MulInOrder(LoadLive(o_row + j, full, m), tc));
  if (tc_row != nullptr) {
    StoreLive(tc_row + j, full, m, tc);
  }
}

}  // namespace rpas::tensor::kernels::avx2

#endif  // RPAS_KERNELS_HAVE_AVX2

#endif  // RPAS_TENSOR_KERNELS_AVX2_MATH_H_
