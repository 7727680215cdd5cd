#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/kernels.h"

namespace rpas::tensor {

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  RPAS_CHECK(a.cols() == b.rows())
      << "matmul shape mismatch: " << a.rows() << "x" << a.cols() << " * "
      << b.rows() << "x" << b.cols();
  RPAS_CHECK(out != nullptr && out->rows() == a.rows() &&
             out->cols() == b.cols())
      << "matmul output shape mismatch";
  // The kernels::Gemm driver packs B and walks 16-row blocks on the calling
  // thread. Each output row's k-accumulation runs in ascending order at
  // every level, so a row's result is independent of the row count. No
  // data-dependent skips: 0 * NaN must stay NaN (IEEE-754 propagation).
  kernels::Gemm(kernels::ActiveLevel(), a.rows(), b.cols(), a.cols(),
                a.data(), a.cols(), b.data(), b.cols(), out->data(),
                out->cols());
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  MatMulInto(a, b, &out);
  return out;
}

void MatMulTNInto(const Matrix& a, const Matrix& b, Matrix* out) {
  RPAS_CHECK(a.rows() == b.rows())
      << "matmul-tn shape mismatch: " << a.rows() << "x" << a.cols()
      << " ^T * " << b.rows() << "x" << b.cols();
  RPAS_CHECK(out != nullptr && out->rows() == a.cols() &&
             out->cols() == b.cols())
      << "matmul-tn output shape mismatch";
  kernels::GemmTN(kernels::ActiveLevel(), a.cols(), b.cols(), a.rows(),
                  a.data(), a.cols(), b.data(), b.cols(), out->data(),
                  out->cols());
}

Matrix MatMulTN(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  MatMulTNInto(a, b, &out);
  return out;
}

void MatMulNTInto(const Matrix& a, const Matrix& b, Matrix* out) {
  RPAS_CHECK(a.cols() == b.cols())
      << "matmul-nt shape mismatch: " << a.rows() << "x" << a.cols() << " * "
      << b.rows() << "x" << b.cols() << "^T";
  RPAS_CHECK(out != nullptr && out->rows() == a.rows() &&
             out->cols() == b.rows())
      << "matmul-nt output shape mismatch";
  kernels::GemmNT(kernels::ActiveLevel(), a.rows(), b.rows(), a.cols(),
                  a.data(), a.cols(), b.data(), b.cols(), out->data(),
                  out->cols());
}

Matrix MatMulNT(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  MatMulNTInto(a, b, &out);
  return out;
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      out(c, r) = a(r, c);
    }
  }
  return out;
}

namespace {
template <typename F>
Matrix Zip(const Matrix& a, const Matrix& b, F f, const char* name) {
  RPAS_CHECK(a.SameShape(b)) << name << " shape mismatch: " << a.rows() << "x"
                             << a.cols() << " vs " << b.rows() << "x"
                             << b.cols();
  Matrix out(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    out[i] = f(a[i], b[i]);
  }
  return out;
}
}  // namespace

Matrix Add(const Matrix& a, const Matrix& b) {
  return Zip(a, b, [](double x, double y) { return x + y; }, "add");
}
Matrix Sub(const Matrix& a, const Matrix& b) {
  return Zip(a, b, [](double x, double y) { return x - y; }, "sub");
}
Matrix Mul(const Matrix& a, const Matrix& b) {
  return Zip(a, b, [](double x, double y) { return x * y; }, "mul");
}
Matrix Div(const Matrix& a, const Matrix& b) {
  return Zip(a, b, [](double x, double y) { return x / y; }, "div");
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& row) {
  RPAS_CHECK(row.rows() == 1 && row.cols() == a.cols())
      << "broadcast shape mismatch";
  Matrix out = a;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      out(r, c) += row(0, c);
    }
  }
  return out;
}

Matrix Scale(const Matrix& a, double s) {
  Matrix out = a;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] *= s;
  }
  return out;
}

Matrix AddScalar(const Matrix& a, double s) {
  Matrix out = a;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] += s;
  }
  return out;
}

Matrix Map(const Matrix& a, const std::function<double(double)>& f) {
  Matrix out(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    out[i] = f(a[i]);
  }
  return out;
}

void Axpy(double alpha, const Matrix& x, Matrix* y) {
  RPAS_CHECK(y != nullptr && x.SameShape(*y)) << "axpy shape mismatch";
  kernels::Axpy(kernels::ActiveLevel(), x.size(), alpha, x.data(), y->data());
}

double Sum(const Matrix& a) {
  return kernels::Sum(kernels::ActiveLevel(), a.size(), a.data());
}

double Mean(const Matrix& a) {
  RPAS_CHECK(!a.empty());
  return Sum(a) / static_cast<double>(a.size());
}

double MaxAbs(const Matrix& a) {
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i]));
  }
  return m;
}

double Norm(const Matrix& a) { return std::sqrt(Dot(a, a)); }

double Dot(const Matrix& a, const Matrix& b) {
  RPAS_CHECK(a.size() == b.size()) << "dot size mismatch";
  return kernels::Dot(kernels::ActiveLevel(), a.size(), a.data(), b.data());
}

Matrix ColSums(const Matrix& a) {
  Matrix out(1, a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      out(0, c) += a(r, c);
    }
  }
  return out;
}

Matrix RowSums(const Matrix& a) {
  Matrix out(a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) {
    double s = 0.0;
    for (size_t c = 0; c < a.cols(); ++c) {
      s += a(r, c);
    }
    out(r, 0) = s;
  }
  return out;
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  RPAS_CHECK(a.rows() == b.rows()) << "concat-cols row mismatch";
  Matrix out(a.rows(), a.cols() + b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      out(r, c) = a(r, c);
    }
    for (size_t c = 0; c < b.cols(); ++c) {
      out(r, a.cols() + c) = b(r, c);
    }
  }
  return out;
}

Matrix ConcatRows(const Matrix& a, const Matrix& b) {
  RPAS_CHECK(a.cols() == b.cols()) << "concat-rows col mismatch";
  Matrix out(a.rows() + b.rows(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      out(r, c) = a(r, c);
    }
  }
  for (size_t r = 0; r < b.rows(); ++r) {
    for (size_t c = 0; c < b.cols(); ++c) {
      out(a.rows() + r, c) = b(r, c);
    }
  }
  return out;
}

Matrix SliceCols(const Matrix& a, size_t begin, size_t end) {
  RPAS_CHECK(begin <= end && end <= a.cols()) << "column slice out of range";
  Matrix out(a.rows(), end - begin);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = begin; c < end; ++c) {
      out(r, c - begin) = a(r, c);
    }
  }
  return out;
}

Matrix SliceRows(const Matrix& a, size_t begin, size_t end) {
  RPAS_CHECK(begin <= end && end <= a.rows()) << "row slice out of range";
  Matrix out(end - begin, a.cols());
  for (size_t r = begin; r < end; ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      out(r - begin, c) = a(r, c);
    }
  }
  return out;
}

Result<Matrix> SolveLinearSystem(Matrix a, Matrix b) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SolveLinearSystem: A must be square");
  }
  if (b.rows() != a.rows() || b.cols() != 1) {
    return Status::InvalidArgument(
        "SolveLinearSystem: b must be a column vector matching A");
  }
  const size_t n = a.rows();
  // Singularity tolerance relative to the matrix magnitude: an absolute
  // cutoff misclassifies well-conditioned but small-scaled systems (e.g.
  // 1e-20 * I). An all-zero matrix has scale 0 and fails the first pivot.
  const double tolerance = MaxAbs(a) * 1e-12;
  // Forward elimination with partial pivoting.
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    double best = std::fabs(a(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a(r, col)) > best) {
        best = std::fabs(a(r, col));
        pivot = r;
      }
    }
    if (best <= tolerance) {
      return Status::FailedPrecondition(
          "SolveLinearSystem: matrix is singular");
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) {
        std::swap(a(pivot, c), a(col, c));
      }
      std::swap(b(pivot, 0), b(col, 0));
    }
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) / a(col, col);
      if (factor == 0.0) {
        continue;
      }
      for (size_t c = col; c < n; ++c) {
        a(r, c) -= factor * a(col, c);
      }
      b(r, 0) -= factor * b(col, 0);
    }
  }
  // Back substitution.
  Matrix x(n, 1);
  for (size_t i = n; i-- > 0;) {
    double s = b(i, 0);
    for (size_t c = i + 1; c < n; ++c) {
      s -= a(i, c) * x(c, 0);
    }
    x(i, 0) = s / a(i, i);
  }
  return x;
}

Result<Matrix> SolveLeastSquares(const Matrix& a, const Matrix& b,
                                 double ridge) {
  if (a.rows() != b.rows() || b.cols() != 1) {
    return Status::InvalidArgument(
        "SolveLeastSquares: b must be a column vector matching A's rows");
  }
  if (ridge < 0.0) {
    return Status::InvalidArgument("SolveLeastSquares: ridge must be >= 0");
  }
  // Transposed-operand GEMM: no O(rows * cols) copy of A per solver call,
  // and the scalar level matches the old Transpose+MatMul bit-for-bit.
  Matrix ata = MatMulTN(a, a);
  for (size_t i = 0; i < ata.rows(); ++i) {
    ata(i, i) += ridge;
  }
  Matrix atb = MatMulTN(a, b);
  return SolveLinearSystem(std::move(ata), std::move(atb));
}

}  // namespace rpas::tensor
