#ifndef RPAS_NN_QCHECKPOINT_H_
#define RPAS_NN_QCHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "autodiff/tape.h"
#include "common/result.h"
#include "tensor/matrix.h"
#include "tensor/quant.h"

namespace rpas::nn {

/// rpasq.v1 — the one checkpoint format: models save exact fp64 files
/// (SaveParameters), the converter re-encodes them at a smaller storage
/// dtype, and every file is memory-mappable.
///
/// Layout (every multi-byte lane little-endian; see DESIGN.md §11 for the
/// full invariant list):
///
///   [0..8)    magic "RPASQ1\0\0"
///   [8..12)   u32 format version (== 1)
///   [12..16)  u32 flags (== 0; loaders reject unknown flags)
///   [16..20)  u32 tensor count
///   [20..24)  u32 header_bytes — total header region length, 64-aligned;
///             the first payload starts here
///   [24..28)  u32 signature length, then the signature bytes
///   per tensor, in order:
///     u16 name length, name bytes
///     u8 dtype (tensor::DType code), u8 reserved (== 0)
///     u64 rows, u64 cols
///     u64 payload offset (absolute, 64-aligned)
///     u64 payload bytes  (== tensor::PayloadBytes(dtype, rows*cols))
///     u32 payload crc32
///   zero padding, then u32 header crc32 as the final 4 bytes of the
///   header region (scope: bytes [0, header_bytes-4))
///   payloads, each 64-aligned, inside [header_bytes, file size)
///
/// Forward-compat rules: readers reject any unknown version, non-zero
/// flag bit, or dtype code — additions bump the version or claim a flag
/// bit, so an old reader can never silently misparse a newer file.
inline constexpr uint8_t kQckptMagic[8] = {'R', 'P', 'A', 'S',
                                           'Q', '1', 0, 0};
inline constexpr uint32_t kQckptVersion = 1;
inline constexpr size_t kQckptAlign = 64;

/// One tensor to serialize.
struct QTensorSpec {
  std::string name;
  tensor::DType dtype = tensor::DType::kF64;
  const tensor::Matrix* data = nullptr;  ///< fp64 source; not owned
};

/// Serializes `tensors` to `path` (temp file + atomic rename). Encoding is
/// deterministic: identical inputs produce identical bytes, which the
/// golden-file tests rely on. A NaN or infinite value in any tensor is
/// InvalidArgument, returned before a file is created.
Status WriteQuantizedCheckpoint(const std::string& path,
                                const std::string& signature,
                                const std::vector<QTensorSpec>& tensors);

/// Storage-dtype policy of the converter: 2-d weight matrices (both dims
/// >= 2) are stored at the requested target dtype; vectors, scalars, and
/// tiny tensors (biases, the MLP scaler) stay exact fp64 — they are a
/// rounding error of the byte budget, and keeping them exact means the
/// measured wQL delta isolates weight quantization.
tensor::DType StorageDType(const tensor::Matrix& m, tensor::DType target);

/// Writes a model's parameters (Params() order, names "t0", "t1", ...) as
/// an rpasq.v1 checkpoint with every tensor exact fp64. This is the one
/// checkpoint format every model saves.
Status SaveParameters(const std::string& path, const std::string& signature,
                      const std::vector<autodiff::Parameter*>& params);

/// Restores parameters saved by SaveParameters (or any rpasq.v1 file of the
/// same layout): maps `path`, runs CheckLayout against `params`, then
/// decodes every tensor into its parameter as owned fp64, so the restored
/// model stays trainable. IoError when the file cannot be opened,
/// InvalidArgument on malformed bytes, a layout mismatch or a non-finite
/// value. Parameters may be partly assigned on error; models stage the load
/// into fresh layers.
Status LoadParameters(const std::string& path, const std::string& signature,
                      const std::vector<autodiff::Parameter*>& params);

/// One-call converter: any rpasq.v1 checkpoint -> rpasq.v1 at `target`
/// dtype under StorageDType(). Tensor names and the signature carry over;
/// converting a SaveParameters file at kF64 reproduces it byte for byte.
Status QuantizeCheckpointFile(const std::string& in_path,
                              const std::string& out_path,
                              tensor::DType target);

/// A named tensor inside a mapped checkpoint.
struct QTensor {
  std::string name;
  tensor::QTensorView view;
};

/// Decodes checkpoint tensor `t` into the fp64 parameter (the small-tensor
/// load path: biases, layer norms, the MLP scaler). The parameter's shape
/// must already match; its gradient is zeroed. InvalidArgument on shape or
/// payload mismatch, or on a NaN or infinite decoded value — the parameter
/// is untouched on error.
Status AssignDequantized(const QTensor& t, autodiff::Parameter* param);

/// A validated, memory-mapped rpasq.v1 checkpoint.
///
/// Map() treats the file as untrusted input: every header field is
/// bounds-checked before use, payload offsets/lengths are checked against
/// the real file size, and the header and every payload must pass their
/// crc32 before a single view is handed out. Any violation returns a typed
/// Status (InvalidArgument for malformed bytes, IoError for filesystem
/// failures) and constructs nothing — there is no partially-valid
/// checkpoint object.
///
/// Views returned by tensor()/Find() point straight into the mapping;
/// holders must keep the shared_ptr alive for as long as they dereference
/// a view (forecasters retain it next to their layers). On platforms
/// without mmap the file is read into a heap buffer with identical
/// semantics (heap_bytes() vs mapped_bytes() tells the two apart).
class QuantizedCheckpoint {
 public:
  static Result<std::shared_ptr<const QuantizedCheckpoint>> Map(
      const std::string& path);

  QuantizedCheckpoint(const QuantizedCheckpoint&) = delete;
  QuantizedCheckpoint& operator=(const QuantizedCheckpoint&) = delete;
  ~QuantizedCheckpoint();

  const std::string& signature() const { return signature_; }
  size_t num_tensors() const { return tensors_.size(); }
  const QTensor& tensor(size_t i) const { return tensors_[i]; }
  const QTensor* Find(std::string_view name) const;

  /// Whole-file byte count (the registry's cache accounting unit).
  size_t file_bytes() const { return file_bytes_; }
  /// file_bytes() when served from a real mmap, else 0.
  size_t mapped_bytes() const { return mapped_ != nullptr ? file_bytes_ : 0; }
  /// Heap bytes of the no-mmap fallback buffer, else 0.
  size_t heap_bytes() const { return mapped_ != nullptr ? 0 : buffer_.size(); }
  bool is_mapped() const { return mapped_ != nullptr; }

 private:
  QuantizedCheckpoint() = default;

  /// Validates the header + payload table + checksums over `data_`
  /// (file_bytes_ long) and fills signature_/tensors_.
  Status Validate(const std::string& path);

  const uint8_t* data_ = nullptr;
  size_t file_bytes_ = 0;
  void* mapped_ = nullptr;          ///< munmap target (null = heap fallback)
  std::vector<uint8_t> buffer_;     ///< no-mmap fallback storage
  std::string signature_;
  std::vector<QTensor> tensors_;
};

/// The layout check every restore runs before it touches a model:
/// `checkpoint` must carry `signature`, exactly params.size() tensors, and
/// tensor i must have the shape of params[i]. InvalidArgument naming the
/// first mismatch otherwise.
Status CheckLayout(const QuantizedCheckpoint& checkpoint,
                   const std::string& signature,
                   const std::vector<autodiff::Parameter*>& params);

}  // namespace rpas::nn

#endif  // RPAS_NN_QCHECKPOINT_H_
