#include "autodiff/tape.h"

#include <cmath>
#include <utility>

#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace rpas::autodiff {

namespace ops = ::rpas::tensor;
namespace kernels = ::rpas::tensor::kernels;

// Bit-identity discipline (scalar dispatch level must reproduce the
// pre-arena tape exactly):
//  * Forward values are computed into zero-filled arena matrices with the
//    same per-element expressions and loop order as the old out-of-place
//    ops, so the stored values are bit-identical.
//  * Backward contributions whose per-element value is a single rounded
//    expression (g[i]*b[i], g[i]/b[i], scatter copies, ...) accumulate
//    directly into the parent's grad: the old code computed the identical
//    value into a temp and then Axpy'd it, which rounds the same way.
//  * GEMM backward products add straight into the parent's grad: GemmTN
//    and GemmNT sum each product from +0.0 and add it to C once, the
//    rounding of the old zeroed temp followed by an Axpy.
//  * Other contributions that are themselves accumulations (column sums)
//    or that the old code staged through a zero temp whose zero elements
//    were still added (Max, elementwise activations) go through a zeroed
//    Scratch() and AccumulateGrad(), preserving the old
//    temp-from-zero-then-add rounding and signed-zero behavior.
//  * Backward lambdas capture at most two words so std::function stays in
//    its small-buffer slot — no per-node heap traffic on the hot path.

const Matrix& Var::value() const {
  RPAS_CHECK(tape_ != nullptr) << "value() on default-constructed Var";
  return tape_->ValueOf(id_);
}

const Matrix& Var::grad() const {
  RPAS_CHECK(tape_ != nullptr) << "grad() on default-constructed Var";
  return tape_->GradOf(id_);
}

const Matrix& Tape::ValueOf(size_t id) const {
  RPAS_DCHECK(id < num_nodes_);
  return *nodes_[id].value;
}

const Matrix& Tape::GradOf(size_t id) const {
  RPAS_DCHECK(id < num_nodes_);
  return *nodes_[id].grad;
}

void Tape::Reset() {
  for (size_t i = 0; i < num_nodes_; ++i) {
    Node& node = nodes_[i];
    node.value = nullptr;
    node.grad = nullptr;
    node.requires_grad = false;
    node.backward = nullptr;
    node.bound_param = nullptr;
  }
  num_nodes_ = 0;
  param_nodes_.clear();
  arena_.Reset();
}

size_t Tape::NewNode(bool requires_grad,
                     std::function<void(const Matrix&, Tape*)> backward) {
  if (num_nodes_ == nodes_.size()) {
    nodes_.emplace_back();
  }
  Node& node = nodes_[num_nodes_];
  node.value = nullptr;
  node.grad = nullptr;
  node.requires_grad = requires_grad;
  node.backward = std::move(backward);
  node.bound_param = nullptr;
  return num_nodes_++;
}

size_t Tape::NewArenaNode(size_t rows, size_t cols, bool requires_grad,
                          std::function<void(const Matrix&, Tape*)> backward) {
  size_t id = NewNode(requires_grad, std::move(backward));
  nodes_[id].value = arena_.Acquire(rows, cols);
  nodes_[id].grad = arena_.Acquire(rows, cols);
  return id;
}

bool Tape::RequiresGrad(Var v) const {
  RPAS_DCHECK(v.tape() == this);
  return nodes_[v.id()].requires_grad;
}

void Tape::AccumulateGrad(size_t id, const Matrix& g) {
  RPAS_DCHECK(id < num_nodes_);
  if (!nodes_[id].requires_grad) {
    return;
  }
  ops::Axpy(1.0, g, nodes_[id].grad);
}

Var Tape::Constant(Matrix value) {
  size_t id = NewNode(/*requires_grad=*/false, nullptr);
  // Donate the caller's buffer to a recycled slot instead of copying.
  Matrix* slot = arena_.Acquire(0, 0);
  *slot = std::move(value);
  nodes_[id].value = slot;
  nodes_[id].grad = arena_.Acquire(slot->rows(), slot->cols());
  return Var(this, id);
}

Var Tape::Zeros(size_t rows, size_t cols) { return Input(rows, cols); }

Var Tape::Input(size_t rows, size_t cols) {
  size_t id = NewArenaNode(rows, cols, /*requires_grad=*/false, nullptr);
  return Var(this, id);
}

Matrix* Tape::MutableValue(Var v) {
  RPAS_DCHECK(v.tape() == this);
  Node& node = nodes_[v.id()];
  RPAS_CHECK(node.bound_param == nullptr && !node.requires_grad)
      << "MutableValue is only valid on Constant/Input/Zeros leaves";
  return node.value;
}

Var Tape::Bind(Parameter* param) {
  RPAS_CHECK(param != nullptr);
  auto it = param_nodes_.find(param);
  if (it != param_nodes_.end()) {
    return Var(this, it->second);
  }
  size_t id = NewNode(/*requires_grad=*/true, nullptr);
  // Alias the parameter's storage: the optimizer only mutates parameters
  // after Backward(), and the tape is Reset() before the next forward.
  nodes_[id].value = &param->value;
  nodes_[id].grad = arena_.Acquire(param->value.rows(), param->value.cols());
  nodes_[id].bound_param = param;
  param_nodes_[param] = id;
  return Var(this, id);
}

Var Tape::MatMul(Var a, Var b) {
  const size_t ai = a.id();
  const size_t bi = b.id();
  const bool rg = RequiresGrad(a) || RequiresGrad(b);
  size_t id = NewArenaNode(a.rows(), b.value().cols(), rg,
                           [ai, bi](const Matrix& g, Tape* t) {
                             // dA = g * B^T ; dB = A^T * g
                             if (Matrix* ga = t->GradFor(ai)) {
                               ops::MatMulNTInto(g, t->ValueOf(bi), ga);
                             }
                             if (Matrix* gb = t->GradFor(bi)) {
                               ops::MatMulTNInto(t->ValueOf(ai), g, gb);
                             }
                           });
  ops::MatMulInto(a.value(), b.value(), nodes_[id].value);
  return Var(this, id);
}

Var Tape::Transpose(Var a) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  size_t id = NewArenaNode(av.cols(), av.rows(), RequiresGrad(a),
                           [ai](const Matrix& g, Tape* t) {
                             Matrix* s = t->Scratch(g.cols(), g.rows());
                             for (size_t r = 0; r < g.rows(); ++r) {
                               for (size_t c = 0; c < g.cols(); ++c) {
                                 (*s)(c, r) = g(r, c);
                               }
                             }
                             t->AccumulateGrad(ai, *s);
                           });
  Matrix* out = nodes_[id].value;
  for (size_t r = 0; r < av.rows(); ++r) {
    for (size_t c = 0; c < av.cols(); ++c) {
      (*out)(c, r) = av(r, c);
    }
  }
  return Var(this, id);
}

namespace {

void CheckSameShape(const Matrix& a, const Matrix& b, const char* name) {
  RPAS_CHECK(a.SameShape(b)) << name << " shape mismatch: " << a.rows() << "x"
                             << a.cols() << " vs " << b.rows() << "x"
                             << b.cols();
}

}  // namespace

Var Tape::Add(Var a, Var b) {
  const size_t ai = a.id();
  const size_t bi = b.id();
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  CheckSameShape(av, bv, "add");
  size_t id = NewArenaNode(av.rows(), av.cols(),
                           RequiresGrad(a) || RequiresGrad(b),
                           [ai, bi](const Matrix& g, Tape* t) {
                             t->AccumulateGrad(ai, g);
                             t->AccumulateGrad(bi, g);
                           });
  Matrix* out = nodes_[id].value;
  for (size_t i = 0; i < av.size(); ++i) {
    (*out)[i] = av[i] + bv[i];
  }
  return Var(this, id);
}

Var Tape::Sub(Var a, Var b) {
  const size_t ai = a.id();
  const size_t bi = b.id();
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  CheckSameShape(av, bv, "sub");
  size_t id = NewArenaNode(av.rows(), av.cols(),
                           RequiresGrad(a) || RequiresGrad(b),
                           [ai, bi](const Matrix& g, Tape* t) {
                             t->AccumulateGrad(ai, g);
                             if (Matrix* gb = t->GradFor(bi)) {
                               // grad += (-1)*g — same rounding as the old
                               // Scale(g, -1) temp.
                               ops::Axpy(-1.0, g, gb);
                             }
                           });
  Matrix* out = nodes_[id].value;
  for (size_t i = 0; i < av.size(); ++i) {
    (*out)[i] = av[i] - bv[i];
  }
  return Var(this, id);
}

Var Tape::Mul(Var a, Var b) {
  const size_t ai = a.id();
  const size_t bi = b.id();
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  CheckSameShape(av, bv, "mul");
  size_t id = NewArenaNode(av.rows(), av.cols(),
                           RequiresGrad(a) || RequiresGrad(b),
                           [ai, bi](const Matrix& g, Tape* t) {
                             const Matrix& bv2 = t->ValueOf(bi);
                             if (Matrix* ga = t->GradFor(ai)) {
                               for (size_t i = 0; i < g.size(); ++i) {
                                 (*ga)[i] += g[i] * bv2[i];
                               }
                             }
                             const Matrix& av2 = t->ValueOf(ai);
                             if (Matrix* gb = t->GradFor(bi)) {
                               for (size_t i = 0; i < g.size(); ++i) {
                                 (*gb)[i] += g[i] * av2[i];
                               }
                             }
                           });
  Matrix* out = nodes_[id].value;
  for (size_t i = 0; i < av.size(); ++i) {
    (*out)[i] = av[i] * bv[i];
  }
  return Var(this, id);
}

Var Tape::Div(Var a, Var b) {
  const size_t ai = a.id();
  const size_t bi = b.id();
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  CheckSameShape(av, bv, "div");
  size_t id = NewArenaNode(
      av.rows(), av.cols(), RequiresGrad(a) || RequiresGrad(b),
      [ai, bi](const Matrix& g, Tape* t) {
        const Matrix& bv2 = t->ValueOf(bi);
        if (Matrix* ga = t->GradFor(ai)) {
          for (size_t i = 0; i < g.size(); ++i) {
            (*ga)[i] += g[i] / bv2[i];
          }
        }
        // d/db (a/b) = -a / b^2
        const Matrix& av2 = t->ValueOf(ai);
        if (Matrix* gb = t->GradFor(bi)) {
          for (size_t i = 0; i < g.size(); ++i) {
            (*gb)[i] += -(g[i] * av2[i]) / (bv2[i] * bv2[i]);
          }
        }
      });
  Matrix* out = nodes_[id].value;
  for (size_t i = 0; i < av.size(); ++i) {
    (*out)[i] = av[i] / bv[i];
  }
  return Var(this, id);
}

Var Tape::Max(Var a, Var b) {
  const size_t ai = a.id();
  const size_t bi = b.id();
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  CheckSameShape(av, bv, "Max");
  size_t id = NewArenaNode(
      av.rows(), av.cols(), RequiresGrad(a) || RequiresGrad(b),
      [ai, bi](const Matrix& g, Tape* t) {
        const Matrix& av2 = t->ValueOf(ai);
        const Matrix& bv2 = t->ValueOf(bi);
        Matrix* ga = t->Scratch(g.rows(), g.cols());
        Matrix* gb = t->Scratch(g.rows(), g.cols());
        for (size_t i = 0; i < g.size(); ++i) {
          if (av2[i] >= bv2[i]) {
            (*ga)[i] = g[i];
          } else {
            (*gb)[i] = g[i];
          }
        }
        t->AccumulateGrad(ai, *ga);
        t->AccumulateGrad(bi, *gb);
      });
  Matrix* out = nodes_[id].value;
  for (size_t i = 0; i < av.size(); ++i) {
    (*out)[i] = av[i] >= bv[i] ? av[i] : bv[i];
  }
  return Var(this, id);
}

Var Tape::AddRowBroadcast(Var a, Var row) {
  const size_t ai = a.id();
  const size_t ri = row.id();
  const Matrix& av = a.value();
  const Matrix& rv = row.value();
  RPAS_CHECK(rv.rows() == 1 && rv.cols() == av.cols())
      << "broadcast shape mismatch";
  size_t id = NewArenaNode(av.rows(), av.cols(),
                           RequiresGrad(a) || RequiresGrad(row),
                           [ai, ri](const Matrix& g, Tape* t) {
                             t->AccumulateGrad(ai, g);
                             if (t->nodes_[ri].requires_grad) {
                               Matrix* s = t->Scratch(1, g.cols());
                               for (size_t r = 0; r < g.rows(); ++r) {
                                 for (size_t c = 0; c < g.cols(); ++c) {
                                   (*s)(0, c) += g(r, c);
                                 }
                               }
                               t->AccumulateGrad(ri, *s);
                             }
                           });
  Matrix* out = nodes_[id].value;
  for (size_t r = 0; r < av.rows(); ++r) {
    for (size_t c = 0; c < av.cols(); ++c) {
      (*out)(r, c) = av(r, c) + rv(0, c);
    }
  }
  return Var(this, id);
}

Var Tape::MulRowBroadcast(Var a, Var row) {
  const size_t ai = a.id();
  const size_t ri = row.id();
  const Matrix& av = a.value();
  const Matrix& rv = row.value();
  RPAS_CHECK(rv.rows() == 1 && rv.cols() == av.cols())
      << "MulRowBroadcast shape mismatch";
  size_t id = NewArenaNode(
      av.rows(), av.cols(), RequiresGrad(a) || RequiresGrad(row),
      [ai, ri](const Matrix& g, Tape* t) {
        const Matrix& av2 = t->ValueOf(ai);
        const Matrix& rv2 = t->ValueOf(ri);
        Matrix* ga = t->GradFor(ai);
        Matrix* gr = t->nodes_[ri].requires_grad
                         ? t->Scratch(1, rv2.cols())
                         : nullptr;
        for (size_t r = 0; r < g.rows(); ++r) {
          for (size_t c = 0; c < g.cols(); ++c) {
            if (ga != nullptr) {
              (*ga)(r, c) += g(r, c) * rv2(0, c);
            }
            if (gr != nullptr) {
              (*gr)(0, c) += g(r, c) * av2(r, c);
            }
          }
        }
        if (gr != nullptr) {
          t->AccumulateGrad(ri, *gr);
        }
      });
  Matrix* out = nodes_[id].value;
  for (size_t r = 0; r < av.rows(); ++r) {
    for (size_t c = 0; c < av.cols(); ++c) {
      (*out)(r, c) = av(r, c) * rv(0, c);
    }
  }
  return Var(this, id);
}

Var Tape::Scale(Var a, double s) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  size_t id = NewArenaNode(av.rows(), av.cols(), RequiresGrad(a),
                           [ai, s](const Matrix& g, Tape* t) {
                             if (Matrix* ga = t->GradFor(ai)) {
                               ops::Axpy(s, g, ga);
                             }
                           });
  Matrix* out = nodes_[id].value;
  for (size_t i = 0; i < av.size(); ++i) {
    (*out)[i] = av[i] * s;
  }
  return Var(this, id);
}

Var Tape::AddScalar(Var a, double s) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  size_t id = NewArenaNode(av.rows(), av.cols(), RequiresGrad(a),
                           [ai](const Matrix& g, Tape* t) {
                             t->AccumulateGrad(ai, g);
                           });
  Matrix* out = nodes_[id].value;
  for (size_t i = 0; i < av.size(); ++i) {
    (*out)[i] = av[i] + s;
  }
  return Var(this, id);
}

Var Tape::Neg(Var a) { return Scale(a, -1.0); }

Var Tape::Tanh(Var a) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  size_t id = NewArenaNode(av.rows(), av.cols(), RequiresGrad(a), nullptr);
  kernels::EwTanh(kernels::ActiveLevel(), av.size(), av.data(),
                  nodes_[id].value->data());
  nodes_[id].backward = [ai, id](const Matrix& g, Tape* t) {
    const Matrix& y = t->ValueOf(id);
    Matrix* ga = t->Scratch(g.rows(), g.cols());
    for (size_t i = 0; i < g.size(); ++i) {
      (*ga)[i] = g[i] * (1.0 - y[i] * y[i]);
    }
    t->AccumulateGrad(ai, *ga);
  };
  return Var(this, id);
}

Var Tape::Sigmoid(Var a) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  size_t id = NewArenaNode(av.rows(), av.cols(), RequiresGrad(a), nullptr);
  kernels::EwSigmoid(kernels::ActiveLevel(), av.size(), av.data(),
                     nodes_[id].value->data());
  nodes_[id].backward = [ai, id](const Matrix& g, Tape* t) {
    const Matrix& y = t->ValueOf(id);
    Matrix* ga = t->Scratch(g.rows(), g.cols());
    for (size_t i = 0; i < g.size(); ++i) {
      (*ga)[i] = g[i] * y[i] * (1.0 - y[i]);
    }
    t->AccumulateGrad(ai, *ga);
  };
  return Var(this, id);
}

Var Tape::Relu(Var a) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  size_t id = NewArenaNode(av.rows(), av.cols(), RequiresGrad(a),
                           [ai](const Matrix& g, Tape* t) {
                             const Matrix& x = t->ValueOf(ai);
                             Matrix* ga = t->Scratch(g.rows(), g.cols());
                             for (size_t i = 0; i < g.size(); ++i) {
                               (*ga)[i] = x[i] > 0.0 ? g[i] : 0.0;
                             }
                             t->AccumulateGrad(ai, *ga);
                           });
  kernels::EwRelu(kernels::ActiveLevel(), av.size(), av.data(),
                  nodes_[id].value->data());
  return Var(this, id);
}

Var Tape::Softplus(Var a) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  size_t id = NewArenaNode(
      av.rows(), av.cols(), RequiresGrad(a),
      [ai](const Matrix& g, Tape* t) {
        const Matrix& x = t->ValueOf(ai);
        Matrix* ga = t->Scratch(g.rows(), g.cols());
        for (size_t i = 0; i < g.size(); ++i) {
          // d softplus / dx = sigmoid(x)
          double s = x[i] >= 0.0
                         ? 1.0 / (1.0 + std::exp(-x[i]))
                         : std::exp(x[i]) / (1.0 + std::exp(x[i]));
          (*ga)[i] = g[i] * s;
        }
        t->AccumulateGrad(ai, *ga);
      });
  kernels::EwSoftplus(kernels::ActiveLevel(), av.size(), av.data(),
                      nodes_[id].value->data());
  return Var(this, id);
}

Var Tape::Exp(Var a) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  size_t id = NewArenaNode(av.rows(), av.cols(), RequiresGrad(a), nullptr);
  Matrix* out = nodes_[id].value;
  for (size_t i = 0; i < av.size(); ++i) {
    (*out)[i] = std::exp(av[i]);
  }
  nodes_[id].backward = [ai, id](const Matrix& g, Tape* t) {
    const Matrix& y = t->ValueOf(id);
    if (Matrix* ga = t->GradFor(ai)) {
      for (size_t i = 0; i < g.size(); ++i) {
        (*ga)[i] += g[i] * y[i];
      }
    }
  };
  return Var(this, id);
}

Var Tape::Log(Var a) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  size_t id = NewArenaNode(av.rows(), av.cols(), RequiresGrad(a),
                           [ai](const Matrix& g, Tape* t) {
                             const Matrix& x = t->ValueOf(ai);
                             if (Matrix* ga = t->GradFor(ai)) {
                               for (size_t i = 0; i < g.size(); ++i) {
                                 (*ga)[i] += g[i] / x[i];
                               }
                             }
                           });
  Matrix* out = nodes_[id].value;
  for (size_t i = 0; i < av.size(); ++i) {
    (*out)[i] = std::log(av[i]);
  }
  return Var(this, id);
}

Var Tape::Square(Var a) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  size_t id = NewArenaNode(av.rows(), av.cols(), RequiresGrad(a),
                           [ai](const Matrix& g, Tape* t) {
                             const Matrix& x = t->ValueOf(ai);
                             if (Matrix* ga = t->GradFor(ai)) {
                               // Same rounding as the old Mul-then-Scale(2)
                               // temp: 2 * (g*x).
                               for (size_t i = 0; i < g.size(); ++i) {
                                 (*ga)[i] += (g[i] * x[i]) * 2.0;
                               }
                             }
                           });
  Matrix* out = nodes_[id].value;
  for (size_t i = 0; i < av.size(); ++i) {
    (*out)[i] = av[i] * av[i];
  }
  return Var(this, id);
}

Var Tape::Sqrt(Var a) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  size_t id = NewArenaNode(av.rows(), av.cols(), RequiresGrad(a), nullptr);
  Matrix* out = nodes_[id].value;
  for (size_t i = 0; i < av.size(); ++i) {
    (*out)[i] = std::sqrt(av[i]);
  }
  nodes_[id].backward = [ai, id](const Matrix& g, Tape* t) {
    const Matrix& y = t->ValueOf(id);
    if (Matrix* ga = t->GradFor(ai)) {
      for (size_t i = 0; i < g.size(); ++i) {
        (*ga)[i] += g[i] * 0.5 / y[i];
      }
    }
  };
  return Var(this, id);
}

Var Tape::SoftmaxRows(Var a) {
  const size_t ai = a.id();
  const Matrix& x = a.value();
  size_t id = NewArenaNode(x.rows(), x.cols(), RequiresGrad(a), nullptr);
  Matrix& value = *nodes_[id].value;
  for (size_t r = 0; r < x.rows(); ++r) {
    double mx = -1e300;
    for (size_t c = 0; c < x.cols(); ++c) {
      mx = std::max(mx, x(r, c));
    }
    double z = 0.0;
    for (size_t c = 0; c < x.cols(); ++c) {
      value(r, c) = std::exp(x(r, c) - mx);
      z += value(r, c);
    }
    for (size_t c = 0; c < x.cols(); ++c) {
      value(r, c) /= z;
    }
  }
  nodes_[id].backward = [ai, id](const Matrix& g, Tape* t) {
    const Matrix& y = t->ValueOf(id);
    Matrix* ga = t->Scratch(g.rows(), g.cols());
    for (size_t r = 0; r < g.rows(); ++r) {
      double dot = 0.0;
      for (size_t c = 0; c < g.cols(); ++c) {
        dot += g(r, c) * y(r, c);
      }
      for (size_t c = 0; c < g.cols(); ++c) {
        (*ga)(r, c) = y(r, c) * (g(r, c) - dot);
      }
    }
    t->AccumulateGrad(ai, *ga);
  };
  return Var(this, id);
}

Var Tape::ConcatCols(Var a, Var b) {
  const size_t ai = a.id();
  const size_t bi = b.id();
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  RPAS_CHECK(av.rows() == bv.rows()) << "concat-cols row mismatch";
  size_t id = NewArenaNode(
      av.rows(), av.cols() + bv.cols(), RequiresGrad(a) || RequiresGrad(b),
      [ai, bi](const Matrix& g, Tape* t) {
        const size_t split = t->ValueOf(ai).cols();
        if (Matrix* ga = t->GradFor(ai)) {
          for (size_t r = 0; r < g.rows(); ++r) {
            for (size_t c = 0; c < split; ++c) {
              (*ga)(r, c) += g(r, c);
            }
          }
        }
        if (Matrix* gb = t->GradFor(bi)) {
          for (size_t r = 0; r < g.rows(); ++r) {
            for (size_t c = split; c < g.cols(); ++c) {
              (*gb)(r, c - split) += g(r, c);
            }
          }
        }
      });
  Matrix* out = nodes_[id].value;
  for (size_t r = 0; r < av.rows(); ++r) {
    for (size_t c = 0; c < av.cols(); ++c) {
      (*out)(r, c) = av(r, c);
    }
    for (size_t c = 0; c < bv.cols(); ++c) {
      (*out)(r, av.cols() + c) = bv(r, c);
    }
  }
  return Var(this, id);
}

Var Tape::ConcatRows(Var a, Var b) {
  const size_t ai = a.id();
  const size_t bi = b.id();
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  RPAS_CHECK(av.cols() == bv.cols()) << "concat-rows col mismatch";
  size_t id = NewArenaNode(
      av.rows() + bv.rows(), av.cols(), RequiresGrad(a) || RequiresGrad(b),
      [ai, bi](const Matrix& g, Tape* t) {
        const size_t split = t->ValueOf(ai).rows();
        if (Matrix* ga = t->GradFor(ai)) {
          for (size_t r = 0; r < split; ++r) {
            for (size_t c = 0; c < g.cols(); ++c) {
              (*ga)(r, c) += g(r, c);
            }
          }
        }
        if (Matrix* gb = t->GradFor(bi)) {
          for (size_t r = split; r < g.rows(); ++r) {
            for (size_t c = 0; c < g.cols(); ++c) {
              (*gb)(r - split, c) += g(r, c);
            }
          }
        }
      });
  Matrix* out = nodes_[id].value;
  for (size_t r = 0; r < av.rows(); ++r) {
    for (size_t c = 0; c < av.cols(); ++c) {
      (*out)(r, c) = av(r, c);
    }
  }
  for (size_t r = 0; r < bv.rows(); ++r) {
    for (size_t c = 0; c < bv.cols(); ++c) {
      (*out)(av.rows() + r, c) = bv(r, c);
    }
  }
  return Var(this, id);
}

Var Tape::SliceCols(Var a, size_t begin, size_t end) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  RPAS_CHECK(begin <= end && end <= av.cols()) << "column slice out of range";
  size_t id = NewArenaNode(av.rows(), end - begin, RequiresGrad(a),
                           [ai, begin](const Matrix& g, Tape* t) {
                             if (Matrix* ga = t->GradFor(ai)) {
                               for (size_t r = 0; r < g.rows(); ++r) {
                                 for (size_t c = 0; c < g.cols(); ++c) {
                                   (*ga)(r, begin + c) += g(r, c);
                                 }
                               }
                             }
                           });
  Matrix* out = nodes_[id].value;
  for (size_t r = 0; r < av.rows(); ++r) {
    for (size_t c = begin; c < end; ++c) {
      (*out)(r, c - begin) = av(r, c);
    }
  }
  return Var(this, id);
}

Var Tape::SliceRows(Var a, size_t begin, size_t end) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  RPAS_CHECK(begin <= end && end <= av.rows()) << "row slice out of range";
  size_t id = NewArenaNode(end - begin, av.cols(), RequiresGrad(a),
                           [ai, begin](const Matrix& g, Tape* t) {
                             if (Matrix* ga = t->GradFor(ai)) {
                               for (size_t r = 0; r < g.rows(); ++r) {
                                 for (size_t c = 0; c < g.cols(); ++c) {
                                   (*ga)(begin + r, c) += g(r, c);
                                 }
                               }
                             }
                           });
  Matrix* out = nodes_[id].value;
  for (size_t r = begin; r < end; ++r) {
    for (size_t c = 0; c < av.cols(); ++c) {
      (*out)(r - begin, c) = av(r, c);
    }
  }
  return Var(this, id);
}

Var Tape::Reshape(Var a, size_t rows, size_t cols) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  RPAS_CHECK(rows * cols == av.size()) << "Reshape size mismatch";
  size_t id = NewArenaNode(rows, cols, RequiresGrad(a),
                           [ai](const Matrix& g, Tape* t) {
                             // Row-major reshape is a flat copy, so the
                             // gradient scatters straight through.
                             if (Matrix* ga = t->GradFor(ai)) {
                               for (size_t i = 0; i < g.size(); ++i) {
                                 (*ga)[i] += g[i];
                               }
                             }
                           });
  Matrix* out = nodes_[id].value;
  for (size_t i = 0; i < av.size(); ++i) {
    (*out)[i] = av[i];
  }
  return Var(this, id);
}

Var Tape::Sum(Var a) {
  const size_t ai = a.id();
  const Matrix& av = a.value();
  size_t id = NewArenaNode(1, 1, RequiresGrad(a),
                           [ai](const Matrix& g, Tape* t) {
                             const double gval = g(0, 0);
                             if (Matrix* ga = t->GradFor(ai)) {
                               for (size_t i = 0; i < ga->size(); ++i) {
                                 (*ga)[i] += gval;
                               }
                             }
                           });
  (*nodes_[id].value)(0, 0) = ops::Sum(av);
  return Var(this, id);
}

Var Tape::Mean(Var a) {
  const size_t n = a.value().size();
  RPAS_CHECK(n > 0) << "Mean of empty matrix";
  return Scale(Sum(a), 1.0 / static_cast<double>(n));
}

Var Tape::Custom(
    const std::vector<Var>& inputs, Matrix value,
    std::function<void(const Matrix& grad_out, Tape* tape)> backward) {
  bool rg = false;
  for (Var v : inputs) {
    RPAS_CHECK(v.tape() == this) << "Custom op input from another tape";
    rg = rg || RequiresGrad(v);
  }
  size_t id = NewNode(rg, std::move(backward));
  Matrix* slot = arena_.Acquire(0, 0);
  *slot = std::move(value);
  nodes_[id].value = slot;
  nodes_[id].grad = arena_.Acquire(slot->rows(), slot->cols());
  return Var(this, id);
}

Var Tape::AllocNode(
    size_t rows, size_t cols, bool requires_grad,
    std::function<void(const Matrix& grad_out, Tape* tape)> backward,
    Matrix** value_out) {
  RPAS_CHECK(value_out != nullptr);
  size_t id = NewArenaNode(rows, cols, requires_grad, std::move(backward));
  *value_out = nodes_[id].value;
  return Var(this, id);
}

void Tape::Backward(Var loss) {
  RPAS_CHECK(loss.tape() == this) << "Backward on foreign Var";
  RPAS_CHECK(loss.value().rows() == 1 && loss.value().cols() == 1)
      << "Backward requires a 1x1 (scalar) loss";
  (*nodes_[loss.id()].grad)(0, 0) = 1.0;
  for (size_t i = loss.id() + 1; i-- > 0;) {
    Node& node = nodes_[i];
    if (!node.requires_grad || !node.backward) {
      continue;
    }
    node.backward(*node.grad, this);
  }
  // Export accumulated gradients into bound parameters.
  for (const auto& [param, id] : param_nodes_) {
    ops::Axpy(1.0, *nodes_[id].grad, &param->grad);
  }
}

}  // namespace rpas::autodiff
