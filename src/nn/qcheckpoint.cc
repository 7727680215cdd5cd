#include "nn/qcheckpoint.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/crc32.h"
#include "common/strings.h"

#if defined(__unix__) || defined(__APPLE__)
#define RPAS_QCKPT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define RPAS_QCKPT_HAVE_MMAP 0
#endif

namespace rpas::nn {
namespace {

using tensor::DType;
using tensor::Matrix;
using tensor::PayloadBytes;

// Hard sanity caps applied to both writer and loader. They bound every
// allocation the loader makes from untrusted fields long before any
// multiplication can overflow.
constexpr size_t kFixedHeaderBytes = 28;
constexpr size_t kMaxTensors = 4096;
constexpr size_t kMaxNameBytes = 256;
constexpr size_t kMaxSignatureBytes = 4096;
constexpr size_t kMaxDim = size_t{1} << 24;
constexpr size_t kMaxElements = size_t{1} << 28;

size_t AlignUp(size_t v) {
  return (v + kQckptAlign - 1) / kQckptAlign * kQckptAlign;
}

/// Serialized table-entry size for a given name length.
size_t EntryBytes(size_t name_len) {
  return 2 + name_len + 1 + 1 + 4 * 8 + 4;
}

void PutU16Le(uint16_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v & 0xFFu);
  p[1] = static_cast<uint8_t>(v >> 8);
}

void PutU32Le(uint32_t v, uint8_t* p) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xFFu);
  }
}

void PutU64Le(uint64_t v, uint8_t* p) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xFFu);
  }
}

/// Bounds-checked little-endian cursor over untrusted bytes. Every Read*
/// returns false instead of reading past `len` — the loader turns any
/// failed read into a typed "truncated" error.
struct Reader {
  const uint8_t* data;
  size_t len;
  size_t pos = 0;

  bool ReadBytes(void* out, size_t n) {
    if (n > len - pos) {  // pos <= len always holds, so no underflow
      return false;
    }
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  bool ReadU16(uint16_t* out) {
    uint8_t b[2];
    if (!ReadBytes(b, 2)) {
      return false;
    }
    *out = static_cast<uint16_t>(b[0] | (b[1] << 8));
    return true;
  }
  bool ReadU32(uint32_t* out) {
    uint8_t b[4];
    if (!ReadBytes(b, 4)) {
      return false;
    }
    *out = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
           (static_cast<uint32_t>(b[2]) << 16) |
           (static_cast<uint32_t>(b[3]) << 24);
    return true;
  }
  bool ReadU64(uint64_t* out) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!ReadU32(&lo) || !ReadU32(&hi)) {
      return false;
    }
    *out = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }
};

Status Malformed(const std::string& path, const std::string& why) {
  return Status::InvalidArgument(path + ": malformed rpasq checkpoint: " +
                                 why);
}

/// A NaN or infinite weight poisons every forecast that reads it, so the
/// writer refuses to persist one and the loader refuses to restore one.
Status CheckFinite(const std::string& name, const Matrix& m) {
  for (size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m[i])) {
      return Status::InvalidArgument(StrFormat(
          "rpasq: tensor '%s' holds a non-finite value at element %zu",
          name.c_str(), i));
    }
  }
  return Status::OK();
}

}  // namespace

tensor::DType StorageDType(const Matrix& m, DType target) {
  if (target == DType::kF64 || m.rows() < 2 || m.cols() < 2) {
    return DType::kF64;
  }
  return target;
}

Status WriteQuantizedCheckpoint(const std::string& path,
                                const std::string& signature,
                                const std::vector<QTensorSpec>& tensors) {
  if (signature.empty() || signature.size() > kMaxSignatureBytes) {
    return Status::InvalidArgument(
        "rpasq: signature must be non-empty and at most 4096 bytes");
  }
  if (tensors.empty() || tensors.size() > kMaxTensors) {
    return Status::InvalidArgument(StrFormat(
        "rpasq: tensor count %zu outside [1, %zu]", tensors.size(),
        kMaxTensors));
  }
  size_t table_bytes = 0;
  for (const QTensorSpec& t : tensors) {
    if (t.name.empty() || t.name.size() > kMaxNameBytes) {
      return Status::InvalidArgument(
          "rpasq: tensor name must be non-empty and at most 256 bytes");
    }
    if (t.data == nullptr || t.data->empty()) {
      return Status::InvalidArgument("rpasq: tensor '" + t.name +
                                     "' has no data");
    }
    if (t.data->rows() > kMaxDim || t.data->cols() > kMaxDim ||
        t.data->size() > kMaxElements) {
      return Status::InvalidArgument("rpasq: tensor '" + t.name +
                                     "' exceeds the format's size caps");
    }
    RPAS_RETURN_IF_ERROR(CheckFinite(t.name, *t.data));
    table_bytes += EntryBytes(t.name.size());
  }

  const size_t header_bytes =
      AlignUp(kFixedHeaderBytes + signature.size() + table_bytes + 4);
  size_t cursor = header_bytes;
  std::vector<size_t> offsets(tensors.size());
  for (size_t i = 0; i < tensors.size(); ++i) {
    offsets[i] = cursor;
    const size_t payload =
        PayloadBytes(tensors[i].dtype, tensors[i].data->size());
    cursor = (i + 1 < tensors.size()) ? AlignUp(cursor + payload)
                                      : cursor + payload;
  }
  std::vector<uint8_t> out(cursor, 0);

  // Fixed fields + signature.
  std::memcpy(out.data(), kQckptMagic, sizeof(kQckptMagic));
  PutU32Le(kQckptVersion, out.data() + 8);
  PutU32Le(0, out.data() + 12);  // flags
  PutU32Le(static_cast<uint32_t>(tensors.size()), out.data() + 16);
  PutU32Le(static_cast<uint32_t>(header_bytes), out.data() + 20);
  PutU32Le(static_cast<uint32_t>(signature.size()), out.data() + 24);
  std::memcpy(out.data() + kFixedHeaderBytes, signature.data(),
              signature.size());

  // Tensor table + payloads.
  size_t table_pos = kFixedHeaderBytes + signature.size();
  for (size_t i = 0; i < tensors.size(); ++i) {
    const QTensorSpec& t = tensors[i];
    const size_t count = t.data->size();
    const size_t payload = PayloadBytes(t.dtype, count);
    uint8_t* e = out.data() + table_pos;
    PutU16Le(static_cast<uint16_t>(t.name.size()), e);
    std::memcpy(e + 2, t.name.data(), t.name.size());
    e += 2 + t.name.size();
    e[0] = static_cast<uint8_t>(t.dtype);
    e[1] = 0;  // reserved
    PutU64Le(t.data->rows(), e + 2);
    PutU64Le(t.data->cols(), e + 10);
    PutU64Le(offsets[i], e + 18);
    PutU64Le(payload, e + 26);
    tensor::EncodePayload(t.dtype, t.data->data(), count,
                          out.data() + offsets[i]);
    PutU32Le(Crc32(out.data() + offsets[i], payload), e + 34);
    table_pos += EntryBytes(t.name.size());
  }

  // Header crc is the final 4 bytes of the header region; the zero padding
  // before it is part of the checksummed scope.
  PutU32Le(Crc32(out.data(), header_bytes - 4),
           out.data() + header_bytes - 4);

  // Temp-file + atomic rename, so a concurrent reader (or a crashed
  // writer) can never observe a half-written checkpoint.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(
#if RPAS_QCKPT_HAVE_MMAP
                           ::getpid()
#else
                           0
#endif
                           ));
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) {
      return Status::IoError("rpasq: cannot open '" + tmp + "' for writing");
    }
    f.write(reinterpret_cast<const char*>(out.data()),
            static_cast<std::streamsize>(out.size()));
    f.flush();
    if (!f) {
      return Status::IoError("rpasq: write to '" + tmp + "' failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rpasq: rename '" + tmp + "' -> '" + path +
                           "' failed");
  }
  return Status::OK();
}

Status SaveParameters(const std::string& path, const std::string& signature,
                      const std::vector<autodiff::Parameter*>& params) {
  std::vector<QTensorSpec> specs;
  specs.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    specs.push_back({StrFormat("t%zu", i), DType::kF64, &params[i]->value});
  }
  return WriteQuantizedCheckpoint(path, signature, specs);
}

Status CheckLayout(const QuantizedCheckpoint& checkpoint,
                   const std::string& signature,
                   const std::vector<autodiff::Parameter*>& params) {
  if (checkpoint.signature() != signature) {
    return Status::InvalidArgument(
        StrFormat("checkpoint signature '%s' does not match '%s'",
                  checkpoint.signature().c_str(), signature.c_str()));
  }
  if (checkpoint.num_tensors() != params.size()) {
    return Status::InvalidArgument(
        StrFormat("checkpoint holds %zu tensors, expected %zu",
                  checkpoint.num_tensors(), params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const tensor::QTensorView& view = checkpoint.tensor(i).view;
    const Matrix& value = params[i]->value;
    if (view.rows != value.rows() || view.cols != value.cols()) {
      return Status::InvalidArgument(StrFormat(
          "checkpoint tensor %zu is %zu x %zu, model expects %zu x %zu", i,
          view.rows, view.cols, value.rows(), value.cols()));
    }
  }
  return Status::OK();
}

Status LoadParameters(const std::string& path, const std::string& signature,
                      const std::vector<autodiff::Parameter*>& params) {
  RPAS_ASSIGN_OR_RETURN(std::shared_ptr<const QuantizedCheckpoint> checkpoint,
                        QuantizedCheckpoint::Map(path));
  RPAS_RETURN_IF_ERROR(CheckLayout(*checkpoint, signature, params));
  for (size_t i = 0; i < params.size(); ++i) {
    RPAS_RETURN_IF_ERROR(AssignDequantized(checkpoint->tensor(i), params[i]));
  }
  return Status::OK();
}

Status QuantizeCheckpointFile(const std::string& in_path,
                              const std::string& out_path, DType target) {
  RPAS_ASSIGN_OR_RETURN(std::shared_ptr<const QuantizedCheckpoint> in,
                        QuantizedCheckpoint::Map(in_path));
  std::vector<Matrix> decoded(in->num_tensors());
  std::vector<QTensorSpec> specs;
  specs.reserve(decoded.size());
  for (size_t i = 0; i < decoded.size(); ++i) {
    RPAS_RETURN_IF_ERROR(
        tensor::DequantizeToMatrix(in->tensor(i).view, &decoded[i]));
    specs.push_back({in->tensor(i).name, StorageDType(decoded[i], target),
                     &decoded[i]});
  }
  return WriteQuantizedCheckpoint(out_path, in->signature(), specs);
}

Status AssignDequantized(const QTensor& t, autodiff::Parameter* param) {
  if (t.view.rows != param->value.rows() ||
      t.view.cols != param->value.cols()) {
    return Status::InvalidArgument(
        StrFormat("tensor '%s' is %zu x %zu, parameter expects %zu x %zu",
                  t.name.c_str(), t.view.rows, t.view.cols,
                  param->value.rows(), param->value.cols()));
  }
  Matrix decoded;
  RPAS_RETURN_IF_ERROR(tensor::DequantizeToMatrix(t.view, &decoded));
  RPAS_RETURN_IF_ERROR(CheckFinite(t.name, decoded));
  param->value = std::move(decoded);
  param->ZeroGrad();
  return Status::OK();
}

QuantizedCheckpoint::~QuantizedCheckpoint() {
#if RPAS_QCKPT_HAVE_MMAP
  if (mapped_ != nullptr) {
    ::munmap(mapped_, file_bytes_);
  }
#endif
}

const QTensor* QuantizedCheckpoint::Find(std::string_view name) const {
  for (const QTensor& t : tensors_) {
    if (t.name == name) {
      return &t;
    }
  }
  return nullptr;
}

Result<std::shared_ptr<const QuantizedCheckpoint>> QuantizedCheckpoint::Map(
    const std::string& path) {
  std::shared_ptr<QuantizedCheckpoint> ckpt(new QuantizedCheckpoint());
#if RPAS_QCKPT_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("rpasq: cannot open '" + path + "' for mapping");
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IoError("rpasq: cannot stat '" + path + "'");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Malformed(path, "file is empty");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IoError("rpasq: mmap of '" + path + "' failed");
  }
  ckpt->mapped_ = map;
  ckpt->data_ = static_cast<const uint8_t*>(map);
  ckpt->file_bytes_ = size;
#else
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::IoError("rpasq: cannot open '" + path + "' for reading");
  }
  const std::streamoff size = in.tellg();
  if (size <= 0) {
    return Malformed(path, "file is empty");
  }
  ckpt->buffer_.resize(static_cast<size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(ckpt->buffer_.data()), size);
  if (!in) {
    return Status::IoError("rpasq: read of '" + path + "' failed");
  }
  ckpt->data_ = ckpt->buffer_.data();
  ckpt->file_bytes_ = ckpt->buffer_.size();
#endif
  RPAS_RETURN_IF_ERROR(ckpt->Validate(path));
  return std::shared_ptr<const QuantizedCheckpoint>(std::move(ckpt));
}

Status QuantizedCheckpoint::Validate(const std::string& path) {
  // --- fixed header fields -------------------------------------------------
  Reader r{data_, file_bytes_};
  uint8_t magic[sizeof(kQckptMagic)];
  uint32_t version = 0;
  uint32_t flags = 0;
  uint32_t num_tensors = 0;
  uint32_t header_bytes32 = 0;
  uint32_t signature_len = 0;
  if (!r.ReadBytes(magic, sizeof(magic)) || !r.ReadU32(&version) ||
      !r.ReadU32(&flags) || !r.ReadU32(&num_tensors) ||
      !r.ReadU32(&header_bytes32) || !r.ReadU32(&signature_len)) {
    return Malformed(path, "truncated fixed header");
  }
  if (std::memcmp(magic, kQckptMagic, sizeof(kQckptMagic)) != 0) {
    return Malformed(path, "bad magic (not an rpasq file)");
  }
  if (version != kQckptVersion) {
    return Malformed(
        path, StrFormat("unsupported format version %u (reader supports %u)",
                        version, kQckptVersion));
  }
  if (flags != 0) {
    return Malformed(path,
                     StrFormat("unknown flag bits 0x%x (reader knows none)",
                               flags));
  }
  if (num_tensors == 0 || num_tensors > kMaxTensors) {
    return Malformed(path, StrFormat("tensor count %u outside [1, %zu]",
                                     num_tensors, kMaxTensors));
  }
  const size_t header_bytes = header_bytes32;
  if (header_bytes % kQckptAlign != 0 || header_bytes < kQckptAlign ||
      header_bytes > file_bytes_) {
    return Malformed(path, StrFormat("header region of %zu bytes is "
                                     "misaligned or exceeds the %zu-byte "
                                     "file",
                                     header_bytes, file_bytes_));
  }
  if (signature_len == 0 || signature_len > kMaxSignatureBytes) {
    return Malformed(path, "signature length outside [1, 4096]");
  }

  // --- header checksum (scope: everything before the final 4 bytes) -------
  const uint32_t stored_header_crc =
      static_cast<uint32_t>(data_[header_bytes - 4]) |
      (static_cast<uint32_t>(data_[header_bytes - 3]) << 8) |
      (static_cast<uint32_t>(data_[header_bytes - 2]) << 16) |
      (static_cast<uint32_t>(data_[header_bytes - 1]) << 24);
  if (Crc32(data_, header_bytes - 4) != stored_header_crc) {
    return Malformed(path, "header checksum mismatch (corrupt header)");
  }

  // --- signature + tensor table, bounded by the checksum trailer ----------
  const size_t table_end = header_bytes - 4;
  Reader h{data_, table_end, kFixedHeaderBytes};
  std::string signature(signature_len, '\0');
  if (!h.ReadBytes(signature.data(), signature_len)) {
    return Malformed(path, "signature overruns the header region");
  }
  std::vector<QTensor> tensors;
  tensors.reserve(num_tensors);
  for (uint32_t i = 0; i < num_tensors; ++i) {
    uint16_t name_len = 0;
    if (!h.ReadU16(&name_len) || name_len == 0 || name_len > kMaxNameBytes) {
      return Malformed(path,
                       StrFormat("tensor %u has a missing or oversized name",
                                 i));
    }
    std::string name(name_len, '\0');
    uint8_t dtype_code = 0;
    uint8_t reserved = 0;
    uint64_t rows = 0;
    uint64_t cols = 0;
    uint64_t offset = 0;
    uint64_t payload_bytes = 0;
    uint32_t payload_crc = 0;
    if (!h.ReadBytes(name.data(), name_len) ||
        !h.ReadBytes(&dtype_code, 1) || !h.ReadBytes(&reserved, 1) ||
        !h.ReadU64(&rows) || !h.ReadU64(&cols) || !h.ReadU64(&offset) ||
        !h.ReadU64(&payload_bytes) || !h.ReadU32(&payload_crc)) {
      return Malformed(path,
                       StrFormat("tensor table truncated at entry %u", i));
    }
    if (!tensor::DTypeValid(dtype_code) || reserved != 0) {
      return Malformed(
          path, StrFormat("tensor '%s' has unknown dtype code %u",
                          name.c_str(), dtype_code));
    }
    const DType dtype = static_cast<DType>(dtype_code);
    if (rows == 0 || cols == 0 || rows > kMaxDim || cols > kMaxDim ||
        rows * cols > kMaxElements) {
      return Malformed(path,
                       StrFormat("tensor '%s' shape %llu x %llu is empty or "
                                 "exceeds the format caps",
                                 name.c_str(),
                                 static_cast<unsigned long long>(rows),
                                 static_cast<unsigned long long>(cols)));
    }
    const size_t count = static_cast<size_t>(rows * cols);
    if (payload_bytes != PayloadBytes(dtype, count)) {
      return Malformed(
          path,
          StrFormat("tensor '%s' payload is %llu bytes but %zu x %zu %s "
                    "requires %zu",
                    name.c_str(),
                    static_cast<unsigned long long>(payload_bytes),
                    static_cast<size_t>(rows), static_cast<size_t>(cols),
                    tensor::DTypeName(dtype), PayloadBytes(dtype, count)));
    }
    if (offset % kQckptAlign != 0 || offset < header_bytes ||
        offset > file_bytes_ || payload_bytes > file_bytes_ - offset) {
      return Malformed(
          path, StrFormat("tensor '%s' payload [%llu, +%llu) is misaligned "
                          "or out of the file's bounds",
                          name.c_str(),
                          static_cast<unsigned long long>(offset),
                          static_cast<unsigned long long>(payload_bytes)));
    }
    if (Crc32(data_ + offset, static_cast<size_t>(payload_bytes)) !=
        payload_crc) {
      return Malformed(path, StrFormat("tensor '%s' payload checksum "
                                       "mismatch (corrupt or bit-flipped "
                                       "data)",
                                       name.c_str()));
    }
    QTensor t;
    t.name = std::move(name);
    t.view.dtype = dtype;
    t.view.rows = static_cast<size_t>(rows);
    t.view.cols = static_cast<size_t>(cols);
    t.view.payload = data_ + offset;
    t.view.payload_bytes = static_cast<size_t>(payload_bytes);
    tensors.push_back(std::move(t));
  }
  // The gap between the last table entry and the checksum trailer must be
  // zero padding — anything else is smuggled bytes the checksum scope
  // would otherwise legitimize.
  for (size_t pos = h.pos; pos < table_end; ++pos) {
    if (data_[pos] != 0) {
      return Malformed(path, "non-zero bytes in the header padding");
    }
  }
  signature_ = std::move(signature);
  tensors_ = std::move(tensors);
  return Status::OK();
}

}  // namespace rpas::nn
