#ifndef RPAS_AUTODIFF_TAPE_H_
#define RPAS_AUTODIFF_TAPE_H_

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <vector>

#include "autodiff/arena.h"
#include "tensor/matrix.h"

namespace rpas::autodiff {

using tensor::Matrix;

class Tape;

/// Trainable tensor owned by a model. A Parameter outlives any Tape; during
/// a training step the tape binds it to a graph node, and Backward() exports
/// the accumulated gradient back into `grad`.
struct Parameter {
  Matrix value;
  Matrix grad;

  explicit Parameter(Matrix v) : value(std::move(v)), grad() {
    grad = Matrix(value.rows(), value.cols());
  }

  size_t size() const { return value.size(); }
  void ZeroGrad() { grad.Fill(0.0); }
};

/// Lightweight handle to a node on a Tape. Copyable; valid until the owning
/// tape is Reset() or destroyed.
class Var {
 public:
  Var() : tape_(nullptr), id_(0) {}
  Var(Tape* tape, size_t id) : tape_(tape), id_(id) {}

  bool valid() const { return tape_ != nullptr; }
  size_t id() const { return id_; }
  Tape* tape() const { return tape_; }

  /// Forward value of this node.
  const Matrix& value() const;
  /// Gradient accumulated by the last Backward() pass.
  const Matrix& grad() const;

  size_t rows() const { return value().rows(); }
  size_t cols() const { return value().cols(); }

 private:
  Tape* tape_;
  size_t id_;
};

/// Reverse-mode automatic differentiation tape over dense matrices.
///
/// Usage per training step:
///   Tape tape;                            // or tape.Reset() to reuse one
///   Var w = tape.Bind(&weights);          // dedup'd: same node if rebound
///   Var x = tape.Constant(batch);
///   Var loss = tape.Mean(tape.Square(tape.Sub(tape.MatMul(x, w), y)));
///   tape.Backward(loss);                  // fills weights.grad
///
/// Nodes are created in topological order, so Backward simply walks the node
/// list in reverse. The tape is single-threaded and meant to be rebuilt per
/// step (define-by-run).
///
/// Storage: node values, gradients, and fused-op scratch live in a per-tape
/// MatrixArena. Reset() rewinds the arena and node list while keeping their
/// heap capacity, so steady-state training allocates nothing per step
/// (ArenaStats().heap_allocs goes flat after the first step — the train
/// loop's O(1)-allocation criterion). Bind() aliases the Parameter's value
/// matrix instead of copying it; callers must not mutate parameters between
/// graph construction and Backward() (the optimizer steps afterwards, and
/// the tape is Reset() before the next forward, so the standard train loop
/// satisfies this by construction).
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Rewinds the tape for the next step: drops all nodes and bindings but
  /// keeps node-slot and arena capacity. Invalidates every Var and every
  /// Matrix pointer previously handed out.
  void Reset();

  /// Arena allocation counters (heap_allocs is flat once training reaches
  /// steady state).
  const MatrixArena::Stats& ArenaStats() const { return arena_.stats(); }

  /// Leaf node with no gradient tracking (inputs, targets, masks). The
  /// buffer is adopted by move — prefer Input() on hot paths so the caller
  /// doesn't construct a fresh Matrix per step.
  Var Constant(Matrix value);

  /// Zero-filled constant leaf served straight from the arena (no caller
  /// allocation; used for recurrent zero states).
  Var Zeros(size_t rows, size_t cols);

  /// Arena-backed constant leaf the caller fills in place via
  /// MutableValue(). The matrix starts zeroed.
  Var Input(size_t rows, size_t cols);

  /// Mutable access to a leaf's value for filling Input() nodes. Must not
  /// be called on Bind() nodes (their value aliases the Parameter) or after
  /// downstream nodes have consumed the value.
  Matrix* MutableValue(Var v);

  /// Leaf node bound to a Parameter. Binding the same Parameter twice on one
  /// tape returns the same node, so weight sharing (e.g., an LSTM cell
  /// unrolled over time) accumulates gradients correctly.
  Var Bind(Parameter* param);

  // --- Linear algebra ---
  Var MatMul(Var a, Var b);
  Var Transpose(Var a);

  // --- Elementwise binary (shapes must match) ---
  Var Add(Var a, Var b);
  Var Sub(Var a, Var b);
  Var Mul(Var a, Var b);
  Var Div(Var a, Var b);
  /// Elementwise maximum; the subgradient routes to the larger input
  /// (ties go to `a`).
  Var Max(Var a, Var b);

  /// Adds a 1 x C row vector `row` to every row of `a` (bias broadcast).
  Var AddRowBroadcast(Var a, Var row);
  /// Multiplies every row of `a` elementwise by the 1 x C row vector.
  Var MulRowBroadcast(Var a, Var row);

  // --- Scalar ops ---
  Var Scale(Var a, double s);
  Var AddScalar(Var a, double s);

  // --- Elementwise unary ---
  Var Neg(Var a);
  Var Tanh(Var a);
  Var Sigmoid(Var a);
  Var Relu(Var a);
  /// log(1 + e^x), numerically stable; maps to positive reals.
  Var Softplus(Var a);
  Var Exp(Var a);
  /// Natural log; inputs must be positive.
  Var Log(Var a);
  Var Square(Var a);
  Var Sqrt(Var a);

  /// Row-wise softmax (each row sums to 1).
  Var SoftmaxRows(Var a);

  // --- Shape ops ---
  Var ConcatCols(Var a, Var b);
  Var ConcatRows(Var a, Var b);
  Var SliceCols(Var a, size_t begin, size_t end);
  Var SliceRows(Var a, size_t begin, size_t end);
  Var Reshape(Var a, size_t rows, size_t cols);

  // --- Reductions (produce 1x1) ---
  Var Sum(Var a);
  Var Mean(Var a);

  /// Generic custom op: `value` is the forward result, `backward` receives
  /// the output gradient and must accumulate into the inputs' grads via
  /// AccumulateGrad(). Used for fused losses with analytic gradients
  /// (e.g., Student-t NLL).
  Var Custom(const std::vector<Var>& inputs, Matrix value,
             std::function<void(const Matrix& grad_out, Tape* tape)> backward);

  /// Low-level fused-op hook: creates a node with an arena-allocated
  /// rows x cols value, returned via `value_out` for the caller to fill
  /// before any downstream node consumes it. Used by nn::LstmCell's fused
  /// step.
  Var AllocNode(size_t rows, size_t cols, bool requires_grad,
                std::function<void(const Matrix& grad_out, Tape* tape)>
                    backward,
                Matrix** value_out);

  /// Zero-filled arena scratch not attached to any node. Valid until
  /// Reset(); used by fused ops for saved activations and by backward
  /// passes for temporaries.
  Matrix* Scratch(size_t rows, size_t cols) { return arena_.Acquire(rows, cols); }

  /// Whether gradients flow through `v` (for fused backward passes that can
  /// skip whole input branches).
  bool RequiresGrad(Var v) const;

  /// Runs reverse-mode accumulation seeded with d(loss)/d(loss) = 1.
  /// `loss` must be 1x1. Afterwards, every bound Parameter's `grad` holds
  /// the accumulated gradient (added to its previous content, so call
  /// ZeroGrad() between steps).
  void Backward(Var loss);

  /// Adds `g` into node `id`'s gradient (for custom ops).
  void AccumulateGrad(size_t id, const Matrix& g);

  /// Node `id`'s gradient, for fused ops that add into it in place (the
  /// GemmTN/GemmNT accumulate contract); nullptr when grads don't flow.
  Matrix* GradFor(size_t id) {
    return nodes_[id].requires_grad ? nodes_[id].grad : nullptr;
  }

  /// Number of nodes currently on the tape.
  size_t NumNodes() const { return num_nodes_; }

  const Matrix& ValueOf(size_t id) const;
  const Matrix& GradOf(size_t id) const;

 private:
  friend class Var;

  struct Node {
    Matrix* value = nullptr;  // arena-owned, or aliases a Parameter's value
    Matrix* grad = nullptr;   // arena-owned
    bool requires_grad = false;
    // Accumulates into parents' grads given this node's grad.
    std::function<void(const Matrix& grad_out, Tape* tape)> backward;
    Parameter* bound_param = nullptr;
  };

  /// Recycles or appends a node slot; value/grad pointers left for the
  /// caller to fill.
  size_t NewNode(bool requires_grad,
                 std::function<void(const Matrix&, Tape*)> backward);
  /// NewNode + arena value and grad of the given shape.
  size_t NewArenaNode(size_t rows, size_t cols, bool requires_grad,
                      std::function<void(const Matrix&, Tape*)> backward);

  std::vector<Node> nodes_;
  size_t num_nodes_ = 0;  // live prefix of nodes_; slots recycle on Reset()
  MatrixArena arena_;
  std::unordered_map<Parameter*, size_t> param_nodes_;
};

}  // namespace rpas::autodiff

#endif  // RPAS_AUTODIFF_TAPE_H_
