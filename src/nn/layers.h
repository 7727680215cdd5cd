#ifndef RPAS_NN_LAYERS_H_
#define RPAS_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "autodiff/tape.h"
#include "common/result.h"
#include "common/rng.h"
#include "tensor/quant.h"

namespace rpas::nn {

using autodiff::Parameter;
using autodiff::Tape;
using autodiff::Var;
using tensor::Matrix;

/// Base for parameterized building blocks. A Module exposes its Parameters
/// so optimizers can iterate them; Forward methods build tape graphs during
/// training, and Apply methods run tape-free inference.
class Module {
 public:
  virtual ~Module() = default;

  /// Pointers to every trainable parameter (including sub-modules').
  virtual std::vector<Parameter*> Params() = 0;

  /// Total scalar parameter count.
  size_t NumParams();

  /// Zeroes every parameter gradient.
  void ZeroGrads();
};

/// Fully-connected layer y = x W + b with optional activation.
class Dense final : public Module {
 public:
  enum class Activation { kNone, kRelu, kTanh, kSigmoid, kSoftplus };

  Dense(size_t in_dim, size_t out_dim, Activation act, Rng* rng);

  /// Training path: x is B x in, result B x out. CHECK-fails on a layer
  /// serving quantized weights — quantized models are inference-only.
  Var Forward(Tape* tape, Var x);
  /// Inference path (no tape, no gradients). With quantized weights the
  /// GEMM runs kernels::GemmQuant against the stored payload
  /// (dequant-on-the-fly); bias add and activation are unchanged, so the
  /// batched-vs-unbatched bit-identity contract holds within a dtype.
  Matrix Apply(const Matrix& x) const;

  /// Serving-only weight replacement: Apply() multiplies against the
  /// serialized rpasq payload view `w` (in x out) instead of the fp64
  /// parameter. The bytes behind the view are NOT owned — the caller (a
  /// forecaster holding its mapped checkpoint) must keep them alive for
  /// this layer's lifetime. InvalidArgument on a shape/payload mismatch.
  Status SetQuantizedWeights(const tensor::QTensorView& w);

  /// Read-only inference weights, for callers that run their own fused
  /// forward: the fp64 parameters, and the quantized view Apply()
  /// multiplies against instead of weight() when one is set.
  const Matrix& weight() const { return w_.value; }
  const Matrix& bias() const { return b_.value; }
  const tensor::QTensorView& quantized_weight() const { return qw_; }

  std::vector<Parameter*> Params() override;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

 private:
  size_t in_dim_;
  size_t out_dim_;
  Activation act_;
  Parameter w_;
  Parameter b_;
  tensor::QTensorView qw_;  ///< serving-only quantized weight view
};

/// Single LSTM cell (batched over rows). State tensors are B x hidden.
/// Gate order in the fused weight matrices: input, forget, cell, output.
/// Forget-gate bias initialized to 1 (standard recipe).
class LstmCell final : public Module {
 public:
  LstmCell(size_t in_dim, size_t hidden_dim, Rng* rng);

  struct State {
    Var h;
    Var c;
  };
  struct RawState {
    Matrix h;
    Matrix c;
  };

  /// Zero state for a batch of `batch` rows on `tape`.
  State ZeroState(Tape* tape, size_t batch) const;
  RawState ZeroRawState(size_t batch) const;

  /// One step of the recurrence on the tape (training). CHECK-fails on a
  /// cell serving quantized weights — quantized models are inference-only.
  State Step(Tape* tape, Var x, const State& state);
  /// One step, tape-free (inference; used by the TFT and QB5000 encoders,
  /// which never load quantized weights). CHECK-fails on a cell serving
  /// quantized weights: only DeepAR sets them, and its fused sampling roll
  /// reads them through quantized_w_x()/quantized_w_h().
  RawState Step(const Matrix& x, const RawState& state) const;

  /// Serving-only weight replacement for the two recurrence matrices
  /// (in x 4H and H x 4H); same ownership contract as
  /// Dense::SetQuantizedWeights. The bias stays a fp64 parameter.
  Status SetQuantizedWeights(const tensor::QTensorView& wx,
                             const tensor::QTensorView& wh);

  /// Read-only inference weights (same contract as Dense::weight()).
  const Matrix& w_x() const { return w_x_.value; }
  const Matrix& w_h() const { return w_h_.value; }
  const Matrix& bias() const { return b_.value; }
  const tensor::QTensorView& quantized_w_x() const { return qwx_; }
  const tensor::QTensorView& quantized_w_h() const { return qwh_; }

  std::vector<Parameter*> Params() override;

  size_t hidden_dim() const { return hidden_dim_; }
  size_t in_dim() const { return in_dim_; }

 private:
  size_t in_dim_;
  size_t hidden_dim_;
  Parameter w_x_;  // in x 4H
  Parameter w_h_;  // H x 4H
  Parameter b_;    // 1 x 4H
  tensor::QTensorView qwx_;  ///< serving-only quantized w_x view
  tensor::QTensorView qwh_;  ///< serving-only quantized w_h view
};

/// Row-wise layer normalization with learned gain/bias
/// (normalizes each row to zero mean / unit variance).
class LayerNorm final : public Module {
 public:
  explicit LayerNorm(size_t dim);

  Var Forward(Tape* tape, Var x);
  Matrix Apply(const Matrix& x) const;

  std::vector<Parameter*> Params() override;

 private:
  size_t dim_;
  Parameter gain_;  // 1 x dim
  Parameter bias_;  // 1 x dim
};

/// Gated Residual Network, the TFT building block:
///   GRN(x) = LayerNorm(skip(x) + GLU(W2 * ReLU(W1 x + b1) + b2))
/// where GLU(a) = sigmoid(W4 a + b4) * (W5 a + b5). When in_dim != out_dim
/// the skip path is a linear projection.
class GatedResidualNetwork final : public Module {
 public:
  GatedResidualNetwork(size_t in_dim, size_t hidden_dim, size_t out_dim,
                       Rng* rng);

  Var Forward(Tape* tape, Var x);
  Matrix Apply(const Matrix& x) const;

  std::vector<Parameter*> Params() override;

 private:
  size_t in_dim_;
  size_t out_dim_;
  Dense fc1_;
  Dense fc2_;
  Dense gate_;
  Dense value_;
  // Projection used only when in_dim != out_dim.
  std::unique_ptr<Dense> skip_proj_;
  LayerNorm norm_;
};

/// Scaled dot-product attention (single head over one sequence):
///   Attention(Q, K, V) = softmax(Q K^T / sqrt(d_k)) V.
/// Q: m x d, K: n x d, V: n x d_v. Returns m x d_v (training graph).
Var ScaledDotAttention(Tape* tape, Var q, Var k, Var v);
/// Tape-free counterpart.
Matrix ScaledDotAttention(const Matrix& q, const Matrix& k, const Matrix& v);

/// Interpretable multi-head attention in the TFT spirit: separate query/key
/// projections per head, a value projection *shared* across heads, and the
/// head outputs averaged before a final linear map — so attention weights
/// remain interpretable as one distribution.
class InterpretableMultiHeadAttention final : public Module {
 public:
  InterpretableMultiHeadAttention(size_t dim, size_t num_heads, Rng* rng);

  /// q: m x dim (decoder), kv: n x dim (encoder memory). Returns m x dim.
  Var Forward(Tape* tape, Var q, Var kv);
  Matrix Apply(const Matrix& q, const Matrix& kv) const;

  std::vector<Parameter*> Params() override;

 private:
  size_t dim_;
  size_t num_heads_;
  size_t head_dim_;
  std::vector<std::unique_ptr<Dense>> q_proj_;  // one per head
  std::vector<std::unique_ptr<Dense>> k_proj_;  // one per head
  Dense v_proj_;                                // shared value projection
  Dense out_proj_;
};

}  // namespace rpas::nn

#endif  // RPAS_NN_LAYERS_H_
