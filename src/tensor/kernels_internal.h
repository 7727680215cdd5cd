#ifndef RPAS_TENSOR_KERNELS_INTERNAL_H_
#define RPAS_TENSOR_KERNELS_INTERNAL_H_

// Internal contract between kernels.cc (dispatch + scalar reference),
// kernels_avx2.cc (AVX2+FMA bodies) and kernels_avx512.cc (the AVX-512F
// bodies of the LSTM step and the transposed GEMMs), both compiled via
// function target attributes. Not installed / not for use outside
// src/tensor.

#include <cstddef>

#include "tensor/kernels.h"

// The AVX2 translation unit uses GCC/Clang `__attribute__((target))` function
// multiversioning so the rest of the build keeps the portable baseline flags.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RPAS_KERNELS_HAVE_AVX2 1
#else
#define RPAS_KERNELS_HAVE_AVX2 0
#endif
// The AVX-512 bodies build wherever the AVX2 ones do.
#define RPAS_KERNELS_HAVE_AVX512 RPAS_KERNELS_HAVE_AVX2

#if RPAS_KERNELS_HAVE_AVX2

namespace rpas::tensor::kernels::avx2 {

void GemmPackedRows(size_t r0, size_t r1, size_t n, size_t k, const double* a,
                    size_t lda, const double* packed, double* c, size_t ldc);
void GemmTN(size_t m, size_t n, size_t k, const double* a, size_t lda,
            const double* b, size_t ldb, double* c, size_t ldc);
void GemmNT(size_t m, size_t n, size_t k, const double* a, size_t lda,
            const double* b, size_t ldb, double* c, size_t ldc);
void Axpy(size_t n, double alpha, const double* x, double* y);
double Dot(size_t n, const double* x, const double* y);
double Sum(size_t n, const double* x);
void EwTanh(size_t n, const double* x, double* out);
void EwSigmoid(size_t n, const double* x, double* out);
// LstmStep over rows [r0, r1); pointers address row 0, as in kernels.h.
void LstmStepRows(size_t r0, size_t r1, const LstmStepWeights& w,
                  const double* x, const double* h_prev, const double* c_prev,
                  size_t ldcp, double* gates, double* h_out, size_t ldh,
                  double* c_out, size_t ldc, double* tanh_c);
void LstmCellBackward(size_t batch, size_t hidden, const double* act,
                      const double* c_prev, size_t ldcp, const double* tanh_c,
                      const double* dh, size_t ldh, const double* dc,
                      size_t ldc, double* dgates, double* dc_prev);
// SortAscending for 2 <= n <= kSortNetworkMax.
void SortAscending(size_t n, double* data);
}  // namespace rpas::tensor::kernels::avx2

#endif  // RPAS_KERNELS_HAVE_AVX2

#if RPAS_KERNELS_HAVE_AVX512

// Bit-identical to the avx2 function of the same name.
namespace rpas::tensor::kernels::avx512 {

void GemmTN(size_t m, size_t n, size_t k, const double* a, size_t lda,
            const double* b, size_t ldb, double* c, size_t ldc);
void GemmNT(size_t m, size_t n, size_t k, const double* a, size_t lda,
            const double* b, size_t ldb, double* c, size_t ldc);
void LstmStepRows(size_t r0, size_t r1, const LstmStepWeights& w,
                  const double* x, const double* h_prev, const double* c_prev,
                  size_t ldcp, double* gates, double* h_out, size_t ldh,
                  double* c_out, size_t ldc, double* tanh_c);

}  // namespace rpas::tensor::kernels::avx512

#endif  // RPAS_KERNELS_HAVE_AVX512

#endif  // RPAS_TENSOR_KERNELS_INTERNAL_H_
