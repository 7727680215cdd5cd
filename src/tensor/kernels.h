#ifndef RPAS_TENSOR_KERNELS_H_
#define RPAS_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/quant.h"

namespace rpas::tensor::kernels {

/// Runtime CPU dispatch levels for the vectorized kernel layer, in
/// ascending order.
///
/// Contract (see DESIGN.md §10):
///  * kScalar is the bit-exact reference: it reproduces the pre-kernel-layer
///    loops operation for operation, so `RPAS_SIMD=scalar` reproduces
///    historical outputs bit-identically. It is the only level on hosts
///    without AVX2+FMA, including every non-x86 host.
///  * kAvx2 uses 4-wide AVX2 with FMA plus polynomial vector
///    exp/log/tanh/sigmoid/softplus. Values may differ from the scalar
///    reference by a few ULP (property-tested bound); within the level every
///    kernel applies an identical per-element operation sequence regardless
///    of the batch row count, preserving the serve layer's
///    batched-vs-unbatched bit-identity.
///  * kAvx512 is a speed level: every output is byte-identical to kAvx2's.
///    LstmStep, GemmTN and GemmNT run AVX-512F bodies that keep the AVX2
///    per-element results, NaN payloads included; every other kernel runs
///    its AVX2 body.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Dispatch level every kernel call uses by default. Resolved once on first
/// use: the highest level that is both compiled in and supported by the CPU,
/// capped by the RPAS_SIMD environment variable ("scalar" | "avx2" |
/// "avx512") for reproducibility. An RPAS_SIMD request above what the
/// machine supports falls back (with a warning) to the highest supported
/// level rather than crashing, so pinned configs stay portable to older
/// hardware; any other value is ignored with a warning.
SimdLevel ActiveLevel();

/// "scalar" | "avx2" | "avx512".
const char* LevelName(SimdLevel level);

/// True when the level's kernels are compiled into this binary.
bool LevelCompiled(SimdLevel level);

/// True when the level is compiled in and the CPU can execute it.
bool LevelSupported(SimdLevel level);

/// Every level that is compiled in and supported by the CPU, in ascending
/// order: kScalar first, the default level last.
std::vector<SimdLevel> SupportedLevels();

/// Forces the active dispatch level for the current process until restored.
/// Used by parity tests and kernel_bench to sweep levels; a request the
/// machine cannot run is clamped to the highest supported level below it
/// (avx512 runs as avx2 on an AVX2-only host). Thread-safe (atomic), but
/// sweeping levels while compute threads are mid-kernel gives mixed-level
/// results — tests switch levels only between operations.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level);
  ~ScopedSimdLevel();
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel previous_;
};

// ---------------------------------------------------------------------------
// GEMM: C (m x n, row-major) += A (m x k, row-major) * B (k x n).
//
// Every variant accumulates each output element over p = 0..k-1 in strictly
// increasing order, so a row's result depends only on that row's inputs —
// never on m — which is what makes batched and unbatched forwards
// bit-identical at any fixed dispatch level.
// ---------------------------------------------------------------------------

/// Doubles required for a packed copy of B (k x n): column panels of width
/// kPanelWidth, zero-padded in the column tail.
size_t PackedSize(size_t k, size_t n);
inline constexpr size_t kPanelWidth = 8;

/// Packs row-major B (k x n, leading dimension ldb) into panel-major layout:
/// panel j0 holds columns [j0, j0+8) contiguously per p. Read-only for
/// every row block of one GEMM call.
void PackB(size_t k, size_t n, const double* b, size_t ldb, double* packed);

/// C rows [r0, r1) += A * B using a packed B. Every level keeps each
/// element's ascending-p chain, and the scalar level's plain mul-then-add
/// equals GemmRowsScalar bit for bit, so a caller that packs B once can
/// serve every level through this call.
void GemmPackedRows(SimdLevel level, size_t r0, size_t r1, size_t n, size_t k,
                    const double* a, size_t lda, const double* packed,
                    double* c, size_t ldc);

// Threading: every driver below runs on its calling thread and walks its
// rows in fixed blocks (16 rows for the GEMMs, 8 for the LSTM kernels).
// Rows never mix, so a row's result does not depend on its block, on the
// batch size or on RPAS_NUM_THREADS. Parallelism lives one level up, over
// independent work (tenants, folds, scenario cells; DESIGN.md §7).

/// Full GEMM driver: C (m x n, ldc) += A (m x k, lda) * B (k x n, ldb), all
/// row-major. Packs B into column panels once (the AVX2 level with
/// n >= kPanelWidth; the scalar level uses the unpacked reference rows)
/// and runs the row kernels over 16-row blocks. Skinny outputs
/// (n < kPanelWidth, such as 1- or 2-column head projections) take a
/// fixed-width path at every level that keeps each row's n running sums in
/// registers over the ascending-p mul-then-add chain — bit-identical to
/// GemmRowsScalar. Each output row is written once with its
/// k-accumulation in ascending order, so the result equals the row kernels
/// over the whole range bit for bit at any dispatch level.
void Gemm(SimdLevel level, size_t m, size_t n, size_t k, const double* a,
          size_t lda, const double* b, size_t ldb, double* c, size_t ldc);

/// The pre-kernel-layer cache-blocked scalar reference (bit-exact legacy
/// MatMul inner loops) over C rows [r0, r1).
void GemmRowsScalar(size_t r0, size_t r1, size_t n, size_t k, const double* a,
                    size_t lda, const double* b, size_t ldb, double* c,
                    size_t ldc);

/// C (m x n) += A^T * B where A is (k x m) and B is (k x n), both row-major.
/// Accumulate contract: each element's product is summed from +0.0 over
/// ascending p (mul-then-add at scalar; FMA at AVX2 and AVX-512, as
/// a[p][i] * b[p][j] + sum) and then added to C once, C + (A^T B). That is
/// bit for bit a zero-filled temp followed by Axpy(1.0) into C, because a
/// sum started from +0.0 is never -0.0, so 0 + P == P; on a zeroed C the
/// scalar level equals Transpose(A) and the reference GEMM. Used by the
/// autodiff MatMul and LSTM backwards and DeepAR's training unroll to add
/// weight gradients (dB = A^T g) straight into their gradient buffers. An
/// element's sequence never depends on the row block or tile.
void GemmTN(SimdLevel level, size_t m, size_t n, size_t k, const double* a,
            size_t lda, const double* b, size_t ldb, double* c, size_t ldc);

/// C (m x n) += A * B^T where A is (m x k) and B is (n x k), both row-major,
/// with GemmTN's accumulate contract: each dot product is formed from +0.0
/// (ascending p at scalar; at AVX2 and AVX-512 one 4-lane FMA accumulator
/// over the full 4-chunks of k, a fixed horizontal sum, then a scalar fma
/// tail) and added to C once. Used by the autodiff MatMul backward
/// (dA = g B^T) and the LSTM backwards (dh_prev = dgates W_h^T) without
/// materializing the transpose. Rows are independent dot products.
void GemmNT(SimdLevel level, size_t m, size_t n, size_t k, const double* a,
            size_t lda, const double* b, size_t ldb, double* c, size_t ldc);

// ---------------------------------------------------------------------------
// Quantized-weight GEMM (the rpasq.v1 serving path).
// ---------------------------------------------------------------------------

/// C (m x n, ldc) += A (m x k, lda) * decode(Bq), where `b_payload` is the
/// serialized payload of a k x n row-major tensor in storage dtype
/// `b_dtype` (see tensor/quant.h for the per-dtype layouts). The payload is
/// decoded once per call into a thread-local fp64 scratch — fp16/fp32
/// convert-and-pack, q8 block dequant-on-the-fly — and then routed through
/// Gemm(), so every Gemm() guarantee carries over unchanged: each output
/// row depends only on its own A row and the (identical) decoded weights,
/// making batched and unbatched forwards bit-identical *within* a dtype.
/// Decoded values are exact functions of the stored bytes, so results are
/// also identical across hosts and SIMD levels modulo the documented
/// Gemm() level contract. Decoding to fp64 is the
/// only way a quantized weight reaches a GEMM: here, or once per call in a
/// fused forward that decodes with DecodePayload (DeepAR's sampling roll).
void GemmQuant(SimdLevel level, size_t m, size_t n, size_t k, const double* a,
               size_t lda, DType b_dtype, const uint8_t* b_payload, double* c,
               size_t ldc);

/// Always false: quantized weights have no int8 GEMM. Kept only because
/// perfbench prints it in its provenance line (perfbench/src/report.cc)
/// and perfbench is frozen with the benchmark; reads no environment.
inline bool GemmQuantInt8Enabled() { return false; }

// ---------------------------------------------------------------------------
// Vector primitives.
// ---------------------------------------------------------------------------

/// y += alpha * x.
void Axpy(SimdLevel level, size_t n, double alpha, const double* x, double* y);

/// Sum of x[i] * y[i]. The AVX2 level reduces with four partial accumulators;
/// parity with the scalar order is bounded by the standard forward-error
/// envelope (see kernel parity tests), not bit equality.
double Dot(SimdLevel level, size_t n, const double* x, const double* y);

/// Sum of x[i] (same reduction-order caveat as Dot).
double Sum(SimdLevel level, size_t n, const double* x);

// Elementwise transcendentals, out[i] = f(x[i]); out may alias x. The scalar
// implementations are the exact formulas the tape and Dense::Apply used
// before the kernel layer (std::tanh, the sign-split sigmoid, the stable
// softplus), so the scalar level stays bit-identical to history.
void EwTanh(SimdLevel level, size_t n, const double* x, double* out);
void EwSigmoid(SimdLevel level, size_t n, const double* x, double* out);
void EwSoftplus(SimdLevel level, size_t n, const double* x, double* out);
void EwRelu(SimdLevel level, size_t n, const double* x, double* out);

// ---------------------------------------------------------------------------
// Sorting.
// ---------------------------------------------------------------------------

/// Sorts data[0, n) ascending under IEEE-754 totalOrder: -NaN < -Inf <
/// ... < -0.0 < +0.0 < ... < +Inf < +NaN, NaNs ordered by payload. Doubles
/// compare as the signed 64-bit keys bits ^ ((bits >> 63) & INT64_MAX),
/// an order that is total on bit patterns, so every level writes the same
/// bytes. On NaN-free input the result equals std::sort with `<` except
/// that every -0.0 precedes every +0.0. The scalar level runs std::sort on
/// the keys; the AVX2 level (and AVX-512, which runs the AVX2 body) runs a
/// bitonic network on them for n <= kSortNetworkMax, padded with the
/// largest key to a power of two, and the scalar body above that.
void SortAscending(SimdLevel level, size_t n, double* data);
inline constexpr size_t kSortNetworkMax = 128;

// ---------------------------------------------------------------------------
// Fused LSTM step (batch-major, gate order i, f, g, o — matching
// nn::LstmCell's fused 4H weight layout).
// ---------------------------------------------------------------------------

/// One LSTM layer's weights as LstmStep reads them: W_x (in_dim x 4H) and
/// W_h (H x 4H) packed by PackB, and the gate bias (4H).
struct LstmStepWeights {
  size_t in_dim = 0;
  size_t hidden = 0;
  const double* wx_packed = nullptr;  ///< PackedSize(in_dim, 4 * hidden)
  const double* wh_packed = nullptr;  ///< PackedSize(hidden, 4 * hidden)
  const double* bias = nullptr;       ///< 4 * hidden
};

/// One fused LSTM step over `batch` rows. `x` (batch x in_dim) and `h_prev`
/// (batch x H) are contiguous. For each row and gate column the
/// pre-activation is
///   (x * W_x + h_prev * W_h) + b
/// where each product is summed in registers from +0.0 over ascending p in
/// the level's GEMM arithmetic (mul-then-add at scalar, FMA at AVX2),
/// exactly the sum GemmPackedRows forms in a zero-filled C. Then
///   c_out = f * c_prev + i * g
///   h_out = o * tanh(c_out)
/// with sigmoid i/f/o and tanh g. `gates` (batch x 4H, contiguous) needs no
/// initialisation: the pre-activations are written to it once and then
/// overwritten by the activated gates, which the training path keeps for
/// the backward. `tanh_c` (batch x hidden, contiguous) receives tanh(c_out)
/// when non-null; pass nullptr in inference. h_out/c_out/c_prev use
/// explicit leading dimensions so the training path can write straight
/// into a [h | c] node value. A row reads only its own rows of h_prev and
/// c_prev, so the state may be updated in place: h_out may alias h_prev
/// (ldh == hidden) and c_out may alias c_prev (same leading dimension).
/// Rows are fully independent and run in 8-row blocks.
void LstmStep(SimdLevel level, size_t batch, const LstmStepWeights& weights,
              const double* x, const double* h_prev, const double* c_prev,
              size_t ldcp, double* gates, double* h_out, size_t ldh,
              double* c_out, size_t ldc, double* tanh_c);

/// Backward through one cell step. Inputs: activated gates `act`
/// (batch x 4H), previous cell state, saved tanh(c_new), and incoming
/// gradients dh (w.r.t. h_out) and dc (w.r.t. c_out, the contribution flowing
/// in from step t+1). Outputs: `dgates` (batch x 4H pre-activation grads,
/// overwritten) and `dc_prev` (batch x hidden, overwritten).
/// Uses plain mul/add in the exact expression shapes of the old per-node
/// backward chain, so the SIMD levels agree with scalar bit-for-bit here.
/// Rows are independent and run in 8-row blocks.
void LstmCellBackward(SimdLevel level, size_t batch, size_t hidden,
                      const double* act, const double* c_prev, size_t ldcp,
                      const double* tanh_c, const double* dh, size_t ldh,
                      const double* dc, size_t ldc, double* dgates,
                      double* dc_prev);

}  // namespace rpas::tensor::kernels

#endif  // RPAS_TENSOR_KERNELS_H_
