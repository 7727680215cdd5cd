#include "nn/layers.h"

#include <cmath>
#include <vector>

#include "nn/init.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

#include "common/strings.h"

namespace rpas::nn {

namespace ops = ::rpas::tensor;
namespace kernels = ::rpas::tensor::kernels;

namespace {

/// Packs an LSTM's recurrence weights into the caller's buffers (sized by
/// kernels::PackedSize) for kernels::LstmStep.
kernels::LstmStepWeights PackStepWeights(const Matrix& w_x, const Matrix& w_h,
                                         const Matrix& bias, double* wx_packed,
                                         double* wh_packed) {
  const size_t gw = w_x.cols();
  kernels::PackB(w_x.rows(), gw, w_x.data(), gw, wx_packed);
  kernels::PackB(w_h.rows(), gw, w_h.data(), gw, wh_packed);
  return {w_x.rows(), w_h.rows(), wx_packed, wh_packed, bias.data()};
}

/// Shared validation for the serving-only quantized weight views.
Status CheckQuantView(const tensor::QTensorView& v, size_t rows, size_t cols,
                      const char* what) {
  if (!v.valid()) {
    return Status::InvalidArgument(
        StrFormat("%s: null quantized weight view", what));
  }
  if (v.rows != rows || v.cols != cols) {
    return Status::InvalidArgument(
        StrFormat("%s: quantized weights are %zu x %zu, layer needs %zu x "
                  "%zu",
                  what, v.rows, v.cols, rows, cols));
  }
  if (v.payload_bytes != tensor::PayloadBytes(v.dtype, v.size())) {
    return Status::InvalidArgument(
        StrFormat("%s: %s payload of %zu bytes does not match the %zu x %zu "
                  "shape",
                  what, tensor::DTypeName(v.dtype), v.payload_bytes, v.rows,
                  v.cols));
  }
  return Status::OK();
}

}  // namespace

size_t Module::NumParams() {
  size_t n = 0;
  for (Parameter* p : Params()) {
    n += p->size();
  }
  return n;
}

void Module::ZeroGrads() {
  for (Parameter* p : Params()) {
    p->ZeroGrad();
  }
}

// ---------------------------------------------------------------- Dense ---

Dense::Dense(size_t in_dim, size_t out_dim, Activation act, Rng* rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      act_(act),
      w_(XavierUniform(in_dim, out_dim, rng)),
      b_(Zeros(1, out_dim)) {}

Var Dense::Forward(Tape* tape, Var x) {
  RPAS_CHECK(!qw_.valid())
      << "Dense::Forward: training through quantized weights is unsupported";
  Var y = tape->AddRowBroadcast(tape->MatMul(x, tape->Bind(&w_)),
                                tape->Bind(&b_));
  switch (act_) {
    case Activation::kNone:
      return y;
    case Activation::kRelu:
      return tape->Relu(y);
    case Activation::kTanh:
      return tape->Tanh(y);
    case Activation::kSigmoid:
      return tape->Sigmoid(y);
    case Activation::kSoftplus:
      return tape->Softplus(y);
  }
  return y;
}

Status Dense::SetQuantizedWeights(const tensor::QTensorView& w) {
  RPAS_RETURN_IF_ERROR(CheckQuantView(w, in_dim_, out_dim_, "Dense"));
  qw_ = w;
  return Status::OK();
}

Matrix Dense::Apply(const Matrix& x) const {
  Matrix product;
  if (qw_.valid()) {
    RPAS_CHECK(x.cols() == in_dim_) << "Dense::Apply input dim mismatch";
    product = Matrix(x.rows(), out_dim_);  // zeroed; GemmQuant accumulates
    kernels::GemmQuant(kernels::ActiveLevel(), x.rows(), out_dim_, in_dim_,
                       x.data(), x.cols(), qw_.dtype, qw_.payload,
                       product.data(), out_dim_);
  } else {
    product = ops::MatMul(x, w_.value);
  }
  Matrix y = ops::AddRowBroadcast(product, b_.value);
  // In-place vectorized activations (the Ew* kernels read and write
  // sequentially, so src == dst is safe).
  const kernels::SimdLevel level = kernels::ActiveLevel();
  switch (act_) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      kernels::EwRelu(level, y.size(), y.data(), y.data());
      break;
    case Activation::kTanh:
      kernels::EwTanh(level, y.size(), y.data(), y.data());
      break;
    case Activation::kSigmoid:
      kernels::EwSigmoid(level, y.size(), y.data(), y.data());
      break;
    case Activation::kSoftplus:
      kernels::EwSoftplus(level, y.size(), y.data(), y.data());
      break;
  }
  return y;
}

std::vector<Parameter*> Dense::Params() { return {&w_, &b_}; }

// ------------------------------------------------------------- LstmCell ---

LstmCell::LstmCell(size_t in_dim, size_t hidden_dim, Rng* rng)
    : in_dim_(in_dim),
      hidden_dim_(hidden_dim),
      w_x_(XavierUniform(in_dim, 4 * hidden_dim, rng)),
      w_h_(XavierUniform(hidden_dim, 4 * hidden_dim, rng)),
      b_(Zeros(1, 4 * hidden_dim)) {
  // Forget-gate bias = 1 encourages remembering early in training.
  for (size_t c = hidden_dim; c < 2 * hidden_dim; ++c) {
    b_.value(0, c) = 1.0;
  }
}

LstmCell::State LstmCell::ZeroState(Tape* tape, size_t batch) const {
  return {tape->Zeros(batch, hidden_dim_), tape->Zeros(batch, hidden_dim_)};
}

LstmCell::RawState LstmCell::ZeroRawState(size_t batch) const {
  return {Matrix(batch, hidden_dim_), Matrix(batch, hidden_dim_)};
}

// Fused step: one node carries [h | c] (batch x 2H). kernels::LstmStep
// forms x*Wx, h*Wh and the bias and runs the activation/cell update, and
// the backward replays the whole chain through kernels::LstmCellBackward +
// GEMM kernels. At the scalar dispatch level every intermediate rounding
// matches the old 14-node-per-step graph, so parameter gradients are
// bit-identical to the unfused implementation.
Status LstmCell::SetQuantizedWeights(const tensor::QTensorView& wx,
                                     const tensor::QTensorView& wh) {
  RPAS_RETURN_IF_ERROR(
      CheckQuantView(wx, in_dim_, 4 * hidden_dim_, "LstmCell w_x"));
  RPAS_RETURN_IF_ERROR(
      CheckQuantView(wh, hidden_dim_, 4 * hidden_dim_, "LstmCell w_h"));
  qwx_ = wx;
  qwh_ = wh;
  return Status::OK();
}

LstmCell::State LstmCell::Step(Tape* tape, Var x, const State& state) {
  RPAS_CHECK(!qwx_.valid())
      << "LstmCell::Step: training through quantized weights is unsupported";
  const size_t h = hidden_dim_;
  const Matrix& xv = x.value();
  const Matrix& hv = state.h.value();
  const Matrix& cv = state.c.value();
  const size_t batch = xv.rows();
  RPAS_CHECK(xv.cols() == in_dim_ && hv.cols() == h && cv.cols() == h)
      << "LstmCell::Step shape mismatch";

  Var wx = tape->Bind(&w_x_);
  Var wh = tape->Bind(&w_h_);
  Var b = tape->Bind(&b_);

  // The step forms (xWx + hWh) + b in that order, the roundings of the
  // unfused graph, and leaves the activated gates in `act` for the
  // backward.
  Matrix* wx_packed = tape->Scratch(1, kernels::PackedSize(in_dim_, 4 * h));
  Matrix* wh_packed = tape->Scratch(1, kernels::PackedSize(h, 4 * h));
  const kernels::LstmStepWeights weights =
      PackStepWeights(w_x_.value, w_h_.value, b_.value, wx_packed->data(),
                      wh_packed->data());
  Matrix* act = tape->Scratch(batch, 4 * h);
  Matrix* tanh_c = tape->Scratch(batch, h);
  const size_t xi = x.id();
  const size_t hi = state.h.id();
  const size_t ci = state.c.id();
  const size_t wxi = wx.id();
  const size_t whi = wh.id();
  const size_t bi = b.id();
  Matrix* value = nullptr;
  Var fused = tape->AllocNode(
      batch, 2 * h, /*requires_grad=*/true,
      [xi, hi, ci, wxi, whi, bi, act, tanh_c](const Matrix& g, Tape* t) {
        const Matrix& cpv = t->ValueOf(ci);
        const size_t batch2 = g.rows();
        const size_t h2 = cpv.cols();
        const kernels::SimdLevel level = kernels::ActiveLevel();
        // g packs [dh | dc] with leading dimension 2H.
        Matrix* dgates = t->Scratch(batch2, 4 * h2);
        Matrix* dcp = t->Scratch(batch2, h2);
        kernels::LstmCellBackward(level, batch2, h2, act->data(), cpv.data(),
                                  h2, tanh_c->data(), g.data(), 2 * h2,
                                  g.data() + h2, 2 * h2, dgates->data(),
                                  dcp->data());
        t->AccumulateGrad(ci, *dcp);
        // db = column sums of dgates (same r-outer order as ops::ColSums).
        Matrix* db = t->Scratch(1, 4 * h2);
        for (size_t r = 0; r < batch2; ++r) {
          for (size_t c = 0; c < 4 * h2; ++c) {
            (*db)(0, c) += (*dgates)(r, c);
          }
        }
        t->AccumulateGrad(bi, *db);
        // The four products add straight into the gradients (the GemmNT /
        // GemmTN accumulate contract).
        if (Matrix* gh = t->GradFor(hi)) {
          ops::MatMulNTInto(*dgates, t->ValueOf(whi), gh);  // dgates * Wh^T
        }
        if (Matrix* gwh = t->GradFor(whi)) {
          ops::MatMulTNInto(t->ValueOf(hi), *dgates, gwh);  // h^T dgates
        }
        if (Matrix* gx = t->GradFor(xi)) {
          ops::MatMulNTInto(*dgates, t->ValueOf(wxi), gx);  // dgates * Wx^T
        }
        if (Matrix* gwx = t->GradFor(wxi)) {
          ops::MatMulTNInto(t->ValueOf(xi), *dgates, gwx);  // x^T dgates
        }
      },
      &value);
  // Writes h into columns [0, H), c into [H, 2H) of the fused value.
  kernels::LstmStep(kernels::ActiveLevel(), batch, weights, xv.data(),
                    hv.data(), cv.data(), h, act->data(), value->data(), 2 * h,
                    value->data() + h, 2 * h, tanh_c->data());
  Var new_h = tape->SliceCols(fused, 0, h);
  Var new_c = tape->SliceCols(fused, h, 2 * h);
  return {new_h, new_c};
}

LstmCell::RawState LstmCell::Step(const Matrix& x,
                                  const RawState& state) const {
  RPAS_CHECK(!qwx_.valid())
      << "LstmCell::Step: quantized weights are served only by DeepAR's "
         "fused roll";
  const size_t h = hidden_dim_;
  const size_t batch = x.rows();
  RPAS_CHECK(x.cols() == in_dim_ && state.h.cols() == h &&
             state.c.cols() == h && state.h.rows() == batch &&
             state.c.rows() == batch)
      << "LstmCell::Step shape mismatch";
  std::vector<double> wx_packed(kernels::PackedSize(in_dim_, 4 * h));
  std::vector<double> wh_packed(kernels::PackedSize(h, 4 * h));
  const kernels::LstmStepWeights weights =
      PackStepWeights(w_x_.value, w_h_.value, b_.value, wx_packed.data(),
                      wh_packed.data());
  std::vector<double> gates(batch * 4 * h);
  RawState out;
  out.h = Matrix(batch, h);
  out.c = Matrix(batch, h);
  kernels::LstmStep(kernels::ActiveLevel(), batch, weights, x.data(),
                    state.h.data(), state.c.data(), h, gates.data(),
                    out.h.data(), h, out.c.data(), h, /*tanh_c=*/nullptr);
  return out;
}

std::vector<Parameter*> LstmCell::Params() { return {&w_x_, &w_h_, &b_}; }

// ------------------------------------------------------------ LayerNorm ---

namespace {
constexpr double kLnEps = 1e-5;
}

LayerNorm::LayerNorm(size_t dim)
    : dim_(dim), gain_(Constant(1, dim, 1.0)), bias_(Zeros(1, dim)) {}

Var LayerNorm::Forward(Tape* tape, Var x) {
  RPAS_CHECK(x.cols() == dim_) << "LayerNorm dim mismatch";
  const Matrix& xv = x.value();
  const size_t rows = xv.rows();
  const size_t d = dim_;

  // Normalized activations computed out-of-graph; custom node provides the
  // analytic LayerNorm backward (cheaper and simpler than composing
  // primitive broadcast ops).
  Matrix normalized(rows, d);
  std::vector<double> inv_std(rows);
  for (size_t r = 0; r < rows; ++r) {
    double mean = 0.0;
    for (size_t c = 0; c < d; ++c) {
      mean += xv(r, c);
    }
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (size_t c = 0; c < d; ++c) {
      const double diff = xv(r, c) - mean;
      var += diff * diff;
    }
    var /= static_cast<double>(d);
    const double istd = 1.0 / std::sqrt(var + kLnEps);
    inv_std[r] = istd;
    for (size_t c = 0; c < d; ++c) {
      normalized(r, c) = (xv(r, c) - mean) * istd;
    }
  }

  const size_t xi = x.id();
  Var norm_node = tape->Custom(
      {x}, normalized,
      [xi, normalized, inv_std, rows, d](const Matrix& g, Tape* t) {
        // dL/dx = istd/d * (d*g - sum(g) - xhat * sum(g*xhat)) per row.
        Matrix gx(rows, d);
        for (size_t r = 0; r < rows; ++r) {
          double sum_g = 0.0;
          double sum_gx = 0.0;
          for (size_t c = 0; c < d; ++c) {
            sum_g += g(r, c);
            sum_gx += g(r, c) * normalized(r, c);
          }
          for (size_t c = 0; c < d; ++c) {
            gx(r, c) = inv_std[r] / static_cast<double>(d) *
                       (static_cast<double>(d) * g(r, c) - sum_g -
                        normalized(r, c) * sum_gx);
          }
        }
        t->AccumulateGrad(xi, gx);
      });
  return tape->AddRowBroadcast(
      tape->MulRowBroadcast(norm_node, tape->Bind(&gain_)),
      tape->Bind(&bias_));
}

Matrix LayerNorm::Apply(const Matrix& x) const {
  RPAS_CHECK(x.cols() == dim_) << "LayerNorm dim mismatch";
  Matrix out(x.rows(), dim_);
  for (size_t r = 0; r < x.rows(); ++r) {
    double mean = 0.0;
    for (size_t c = 0; c < dim_; ++c) {
      mean += x(r, c);
    }
    mean /= static_cast<double>(dim_);
    double var = 0.0;
    for (size_t c = 0; c < dim_; ++c) {
      const double diff = x(r, c) - mean;
      var += diff * diff;
    }
    var /= static_cast<double>(dim_);
    const double istd = 1.0 / std::sqrt(var + kLnEps);
    for (size_t c = 0; c < dim_; ++c) {
      out(r, c) =
          (x(r, c) - mean) * istd * gain_.value(0, c) + bias_.value(0, c);
    }
  }
  return out;
}

std::vector<Parameter*> LayerNorm::Params() { return {&gain_, &bias_}; }

// ------------------------------------------------- GatedResidualNetwork ---

GatedResidualNetwork::GatedResidualNetwork(size_t in_dim, size_t hidden_dim,
                                           size_t out_dim, Rng* rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      fc1_(in_dim, hidden_dim, Dense::Activation::kRelu, rng),
      fc2_(hidden_dim, out_dim, Dense::Activation::kNone, rng),
      gate_(out_dim, out_dim, Dense::Activation::kSigmoid, rng),
      value_(out_dim, out_dim, Dense::Activation::kNone, rng),
      norm_(out_dim) {
  if (in_dim != out_dim) {
    skip_proj_ = std::make_unique<Dense>(in_dim, out_dim,
                                         Dense::Activation::kNone, rng);
  }
}

Var GatedResidualNetwork::Forward(Tape* tape, Var x) {
  Var hidden = fc2_.Forward(tape, fc1_.Forward(tape, x));
  Var glu = tape->Mul(gate_.Forward(tape, hidden),
                      value_.Forward(tape, hidden));
  Var skip = skip_proj_ ? skip_proj_->Forward(tape, x) : x;
  return norm_.Forward(tape, tape->Add(skip, glu));
}

Matrix GatedResidualNetwork::Apply(const Matrix& x) const {
  Matrix hidden = fc2_.Apply(fc1_.Apply(x));
  Matrix glu = ops::Mul(gate_.Apply(hidden), value_.Apply(hidden));
  Matrix skip = skip_proj_ ? skip_proj_->Apply(x) : x;
  return norm_.Apply(ops::Add(skip, glu));
}

std::vector<Parameter*> GatedResidualNetwork::Params() {
  std::vector<Parameter*> params;
  for (Module* m : std::initializer_list<Module*>{&fc1_, &fc2_, &gate_,
                                                  &value_, &norm_}) {
    for (Parameter* p : m->Params()) {
      params.push_back(p);
    }
  }
  if (skip_proj_) {
    for (Parameter* p : skip_proj_->Params()) {
      params.push_back(p);
    }
  }
  return params;
}

// ------------------------------------------------------------ Attention ---

Var ScaledDotAttention(Tape* tape, Var q, Var k, Var v) {
  RPAS_CHECK(q.cols() == k.cols()) << "attention dim mismatch";
  const double scale = 1.0 / std::sqrt(static_cast<double>(q.cols()));
  Var scores = tape->Scale(tape->MatMul(q, tape->Transpose(k)), scale);
  return tape->MatMul(tape->SoftmaxRows(scores), v);
}

Matrix ScaledDotAttention(const Matrix& q, const Matrix& k, const Matrix& v) {
  RPAS_CHECK(q.cols() == k.cols()) << "attention dim mismatch";
  const double scale = 1.0 / std::sqrt(static_cast<double>(q.cols()));
  Matrix scores = ops::Scale(ops::MatMul(q, ops::Transpose(k)), scale);
  for (size_t r = 0; r < scores.rows(); ++r) {
    double mx = -1e300;
    for (size_t c = 0; c < scores.cols(); ++c) {
      mx = std::max(mx, scores(r, c));
    }
    double z = 0.0;
    for (size_t c = 0; c < scores.cols(); ++c) {
      scores(r, c) = std::exp(scores(r, c) - mx);
      z += scores(r, c);
    }
    for (size_t c = 0; c < scores.cols(); ++c) {
      scores(r, c) /= z;
    }
  }
  return ops::MatMul(scores, v);
}

InterpretableMultiHeadAttention::InterpretableMultiHeadAttention(
    size_t dim, size_t num_heads, Rng* rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      v_proj_(dim, dim / num_heads, Dense::Activation::kNone, rng),
      out_proj_(dim / num_heads, dim, Dense::Activation::kNone, rng) {
  RPAS_CHECK(num_heads > 0 && dim % num_heads == 0)
      << "attention dim must be divisible by num_heads";
  for (size_t h = 0; h < num_heads_; ++h) {
    q_proj_.push_back(std::make_unique<Dense>(dim, head_dim_,
                                              Dense::Activation::kNone, rng));
    k_proj_.push_back(std::make_unique<Dense>(dim, head_dim_,
                                              Dense::Activation::kNone, rng));
  }
}

Var InterpretableMultiHeadAttention::Forward(Tape* tape, Var q, Var kv) {
  Var value = v_proj_.Forward(tape, kv);  // shared across heads
  Var head_sum;
  for (size_t h = 0; h < num_heads_; ++h) {
    Var qh = q_proj_[h]->Forward(tape, q);
    Var kh = k_proj_[h]->Forward(tape, kv);
    Var att = ScaledDotAttention(tape, qh, kh, value);
    head_sum = h == 0 ? att : tape->Add(head_sum, att);
  }
  Var mean_heads =
      tape->Scale(head_sum, 1.0 / static_cast<double>(num_heads_));
  return out_proj_.Forward(tape, mean_heads);
}

Matrix InterpretableMultiHeadAttention::Apply(const Matrix& q,
                                              const Matrix& kv) const {
  Matrix value = v_proj_.Apply(kv);
  Matrix head_sum;
  for (size_t h = 0; h < num_heads_; ++h) {
    Matrix qh = q_proj_[h]->Apply(q);
    Matrix kh = k_proj_[h]->Apply(kv);
    Matrix att = ScaledDotAttention(qh, kh, value);
    head_sum = h == 0 ? att : ops::Add(head_sum, att);
  }
  return out_proj_.Apply(
      ops::Scale(head_sum, 1.0 / static_cast<double>(num_heads_)));
}

std::vector<Parameter*> InterpretableMultiHeadAttention::Params() {
  std::vector<Parameter*> params;
  for (auto& d : q_proj_) {
    for (Parameter* p : d->Params()) {
      params.push_back(p);
    }
  }
  for (auto& d : k_proj_) {
    for (Parameter* p : d->Params()) {
      params.push_back(p);
    }
  }
  for (Parameter* p : v_proj_.Params()) {
    params.push_back(p);
  }
  for (Parameter* p : out_proj_.Params()) {
    params.push_back(p);
  }
  return params;
}

}  // namespace rpas::nn
