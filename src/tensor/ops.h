#ifndef RPAS_TENSOR_OPS_H_
#define RPAS_TENSOR_OPS_H_

#include <functional>

#include "common/result.h"
#include "tensor/matrix.h"

namespace rpas::tensor {

/// a * b (standard matrix product). Requires a.cols() == b.rows().
Matrix MatMul(const Matrix& a, const Matrix& b);

/// Accumulates a * b into `*out` (shape a.rows x b.cols; callers normally
/// pass a zeroed target, e.g. an arena matrix). SIMD-dispatched; the scalar
/// level reproduces the historical MatMul bit-for-bit.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);

/// a^T * b without materializing the transpose. Requires a.rows() ==
/// b.rows(); result is a.cols x b.cols. At the scalar level this is
/// bit-identical to MatMul(Transpose(a), b). The Into form adds the product,
/// summed from +0.0, to `*out` (kernels::GemmTN's accumulate contract), so
/// a backward adds a gradient straight into its gradient buffer.
Matrix MatMulTN(const Matrix& a, const Matrix& b);
void MatMulTNInto(const Matrix& a, const Matrix& b, Matrix* out);

/// a * b^T without materializing the transpose. Requires a.cols() ==
/// b.cols(); result is a.rows x b.rows. At the scalar level this is
/// bit-identical to MatMul(a, Transpose(b)). The Into form adds to `*out`
/// as MatMulTNInto does.
Matrix MatMulNT(const Matrix& a, const Matrix& b);
void MatMulNTInto(const Matrix& a, const Matrix& b, Matrix* out);

/// a^T.
Matrix Transpose(const Matrix& a);

/// Elementwise binary operations; shapes must match.
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Mul(const Matrix& a, const Matrix& b);
Matrix Div(const Matrix& a, const Matrix& b);

/// Adds a 1 x cols row vector to every row of `a` (bias broadcast).
Matrix AddRowBroadcast(const Matrix& a, const Matrix& row);

/// Scalar operations.
Matrix Scale(const Matrix& a, double s);
Matrix AddScalar(const Matrix& a, double s);

/// Applies `f` elementwise.
Matrix Map(const Matrix& a, const std::function<double(double)>& f);

/// In-place y += alpha * x; shapes must match.
void Axpy(double alpha, const Matrix& x, Matrix* y);

/// Reductions.
double Sum(const Matrix& a);
double Mean(const Matrix& a);
double MaxAbs(const Matrix& a);
/// Frobenius norm.
double Norm(const Matrix& a);
/// Dot product of two same-shaped matrices viewed as flat vectors.
double Dot(const Matrix& a, const Matrix& b);

/// Sums each column into a 1 x cols row vector.
Matrix ColSums(const Matrix& a);
/// Sums each row into a rows x 1 column vector.
Matrix RowSums(const Matrix& a);

/// Horizontal concatenation [a | b]; row counts must match.
Matrix ConcatCols(const Matrix& a, const Matrix& b);
/// Vertical concatenation [a ; b]; column counts must match.
Matrix ConcatRows(const Matrix& a, const Matrix& b);

/// Copies columns [begin, end) of `a`.
Matrix SliceCols(const Matrix& a, size_t begin, size_t end);
/// Copies rows [begin, end) of `a`.
Matrix SliceRows(const Matrix& a, size_t begin, size_t end);

/// Solves the linear system A x = b with partial-pivot Gaussian
/// elimination. A must be square, b a column vector. Returns
/// FailedPrecondition for (numerically) singular systems.
Result<Matrix> SolveLinearSystem(Matrix a, Matrix b);

/// Least-squares solution to min ||A x - b||_2 via normal equations with
/// Tikhonov damping `ridge` (>= 0). Used by ARIMA and kernel baselines.
Result<Matrix> SolveLeastSquares(const Matrix& a, const Matrix& b,
                                 double ridge = 0.0);

}  // namespace rpas::tensor

#endif  // RPAS_TENSOR_OPS_H_
