// rpasq.v1 format hardening: structure-aware malformed-input corpus,
// round-trip / golden-file properties, and the fp16/q8 numeric contracts.
//
// The loader treats checkpoint files as untrusted input. Every case in the
// malformed corpus below must produce a typed Status (InvalidArgument for
// malformed bytes, IoError for filesystem failures) — never a crash, UB,
// or a partially constructed checkpoint. The suite runs under ASan and
// TSan in CI; the corpus replay doubles as the deterministic fuzz corpus
// for tier-1 ctest.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/tape.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "forecast/mlp.h"
#include "nn/qcheckpoint.h"
#include "tensor/quant.h"

#ifndef RPAS_TEST_DATA_DIR
#define RPAS_TEST_DATA_DIR "tests/data"
#endif

namespace rpas::nn {
namespace {

using tensor::DType;
using tensor::Matrix;

constexpr size_t kAlign = kQckptAlign;

// Field offsets in the fixed header (see qcheckpoint.h layout comment).
constexpr size_t kOffVersion = 8;
constexpr size_t kOffFlags = 12;
constexpr size_t kOffNumTensors = 16;
constexpr size_t kOffHeaderBytes = 20;
constexpr size_t kOffSignatureLen = 24;
constexpr size_t kFixedHeader = 28;

std::string TmpPath(const char* tag) {
  return StrFormat("/tmp/rpas_ckpt_fmt_%s_%ld.rpasq", tag,
                   static_cast<long>(::getpid()));
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  RPAS_CHECK(in.is_open()) << path;
  const std::streamoff size = in.tellg();
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  RPAS_CHECK(!in.fail());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  RPAS_CHECK(out.is_open()) << path;
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  RPAS_CHECK(!out.fail());
}

uint32_t GetU32(const std::vector<uint8_t>& b, size_t off) {
  return static_cast<uint32_t>(b[off]) |
         (static_cast<uint32_t>(b[off + 1]) << 8) |
         (static_cast<uint32_t>(b[off + 2]) << 16) |
         (static_cast<uint32_t>(b[off + 3]) << 24);
}

void SetU16(std::vector<uint8_t>* b, size_t off, uint16_t v) {
  (*b)[off] = static_cast<uint8_t>(v & 0xFFu);
  (*b)[off + 1] = static_cast<uint8_t>(v >> 8);
}

void SetU32(std::vector<uint8_t>* b, size_t off, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*b)[off + static_cast<size_t>(i)] =
        static_cast<uint8_t>((v >> (8 * i)) & 0xFFu);
  }
}

void SetU64(std::vector<uint8_t>* b, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*b)[off + static_cast<size_t>(i)] =
        static_cast<uint8_t>((v >> (8 * i)) & 0xFFu);
  }
}

/// Recomputes the header checksum after a deliberate header tamper, so the
/// corpus case reaches the specific validation it targets instead of
/// tripping the checksum first.
void FixHeaderCrc(std::vector<uint8_t>* b) {
  const size_t hb = GetU32(*b, kOffHeaderBytes);
  RPAS_CHECK(hb >= 4 && hb <= b->size());
  SetU32(b, hb - 4, Crc32(b->data(), hb - 4));
}

/// Writes `bytes` to a scratch file and attempts to map it.
Status MapBytes(const std::vector<uint8_t>& bytes) {
  const std::string path = TmpPath("case");
  WriteFileBytes(path, bytes);
  auto mapped = QuantizedCheckpoint::Map(path);
  std::remove(path.c_str());
  return mapped.ok() ? Status::OK() : mapped.status();
}

/// Deterministic fp64 values that are exact in every IEEE width we store
/// headers for (small rationals with power-of-two denominators), so golden
/// bytes are identical across platforms and compilers.
double RefValue(size_t i, size_t j) {
  return (static_cast<double>((i * 31 + j * 17) % 97) - 48.0) / 16.0;
}

Matrix RefMatrix(size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      m(i, j) = RefValue(i, j);
    }
  }
  return m;
}

/// The reference checkpoint every corruption case starts from: a q8 weight
/// (two rows of two q8 blocks each), an f16 weight, and an exact f64 bias.
struct Reference {
  std::string path;
  std::vector<uint8_t> bytes;
  Matrix w_q8;
  Matrix w_f16;
  Matrix bias;
};

const Reference& Ref() {
  static const Reference* ref = [] {
    auto* r = new Reference;
    r->path = TmpPath("ref");
    r->w_q8 = RefMatrix(2, 128);
    r->w_f16 = RefMatrix(4, 8);
    r->bias = RefMatrix(1, 6);
    const std::vector<QTensorSpec> specs{
        {"w_q8", DType::kQ8, &r->w_q8},
        {"w_f16", DType::kF16, &r->w_f16},
        {"bias", DType::kF64, &r->bias},
    };
    RPAS_CHECK(
        WriteQuantizedCheckpoint(r->path, "FMT test v1", specs).ok());
    r->bytes = ReadFileBytes(r->path);
    return r;
  }();
  return *ref;
}

/// Byte offset of tensor table entry `index` inside the reference header.
size_t EntryOffset(const std::vector<uint8_t>& b, size_t index) {
  size_t pos = kFixedHeader + GetU32(b, kOffSignatureLen);
  for (size_t i = 0; i < index; ++i) {
    const size_t name_len = b[pos] | (b[pos + 1] << 8);
    pos += 2 + name_len + 1 + 1 + 4 * 8 + 4;
  }
  return pos;
}

/// Field offsets within one table entry, relative to the entry start.
struct EntryFields {
  size_t name_len = 0;  ///< at entry start (u16)
  size_t dtype = 0;
  size_t reserved = 0;
  size_t rows = 0;
  size_t cols = 0;
  size_t offset = 0;
  size_t payload_bytes = 0;
  size_t crc = 0;
};

EntryFields FieldsAt(const std::vector<uint8_t>& b, size_t entry_off) {
  const size_t name_len = b[entry_off] | (b[entry_off + 1] << 8);
  EntryFields f;
  f.name_len = entry_off;
  f.dtype = entry_off + 2 + name_len;
  f.reserved = f.dtype + 1;
  f.rows = f.dtype + 2;
  f.cols = f.dtype + 10;
  f.offset = f.dtype + 18;
  f.payload_bytes = f.dtype + 26;
  f.crc = f.dtype + 34;
  return f;
}

void ExpectRejected(const std::vector<uint8_t>& bytes, const char* what,
                    const char* expect_substr) {
  const Status st = MapBytes(bytes);
  EXPECT_FALSE(st.ok()) << what;
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what << ": "
                                                     << st.ToString();
  EXPECT_NE(st.ToString().find(expect_substr), std::string::npos)
      << what << ": got '" << st.ToString() << "', wanted substring '"
      << expect_substr << "'";
}

// ---------------------------------------------------------------------------
// Malformed-input corpus: every case is a structure-aware corruption of the
// valid reference file and must be rejected with a typed InvalidArgument.
// ---------------------------------------------------------------------------

TEST(CkptFormatFuzz, ValidReferenceMaps) {
  const Status st = MapBytes(Ref().bytes);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(CkptFormatFuzz, EmptyFile) {
  ExpectRejected({}, "empty file", "file is empty");
}

TEST(CkptFormatFuzz, TruncatedFixedHeader) {
  std::vector<uint8_t> b(Ref().bytes.begin(), Ref().bytes.begin() + 10);
  ExpectRejected(b, "10-byte file", "truncated fixed header");
}

TEST(CkptFormatFuzz, BadMagicFirstByte) {
  auto b = Ref().bytes;
  b[0] ^= 0xFF;
  ExpectRejected(b, "flipped magic[0]", "bad magic");
}

TEST(CkptFormatFuzz, BadMagicTrailingNul) {
  auto b = Ref().bytes;
  b[7] = 1;
  ExpectRejected(b, "nonzero magic[7]", "bad magic");
}

TEST(CkptFormatFuzz, FutureVersionRejected) {
  auto b = Ref().bytes;
  SetU32(&b, kOffVersion, 2);
  ExpectRejected(b, "version 2", "unsupported format version");
}

TEST(CkptFormatFuzz, VersionZeroRejected) {
  auto b = Ref().bytes;
  SetU32(&b, kOffVersion, 0);
  ExpectRejected(b, "version 0", "unsupported format version");
}

TEST(CkptFormatFuzz, UnknownFlagBitLow) {
  auto b = Ref().bytes;
  SetU32(&b, kOffFlags, 1);
  ExpectRejected(b, "flags=1", "unknown flag bits");
}

TEST(CkptFormatFuzz, UnknownFlagBitHigh) {
  auto b = Ref().bytes;
  SetU32(&b, kOffFlags, 0x80000000u);
  ExpectRejected(b, "flags=MSB", "unknown flag bits");
}

TEST(CkptFormatFuzz, ZeroTensorCount) {
  auto b = Ref().bytes;
  SetU32(&b, kOffNumTensors, 0);
  ExpectRejected(b, "0 tensors", "tensor count");
}

TEST(CkptFormatFuzz, AbsurdTensorCount) {
  auto b = Ref().bytes;
  SetU32(&b, kOffNumTensors, 1u << 20);
  ExpectRejected(b, "2^20 tensors", "tensor count");
}

TEST(CkptFormatFuzz, InflatedTensorCountReadsPadding) {
  auto b = Ref().bytes;
  // The phantom fourth entry starts in the zero padding, so its name_len
  // decodes as 0 and the name check rejects it before any overrun.
  SetU32(&b, kOffNumTensors, GetU32(b, kOffNumTensors) + 1);
  FixHeaderCrc(&b);
  ExpectRejected(b, "count+1", "missing or oversized name");
}

TEST(CkptFormatFuzz, TensorTableTruncatedMidEntry) {
  auto b = Ref().bytes;
  // Growing the last entry's name_len (still within the name cap) pushes
  // its fixed fields past the checksum trailer: the entry reader must stop
  // at the header region's edge, not read into the trailer or beyond.
  SetU16(&b, FieldsAt(b, EntryOffset(b, 2)).name_len, 30);
  FixHeaderCrc(&b);
  ExpectRejected(b, "name_len grown to 30", "tensor table truncated");
}

TEST(CkptFormatFuzz, MisalignedHeaderBytes) {
  auto b = Ref().bytes;
  SetU32(&b, kOffHeaderBytes, GetU32(b, kOffHeaderBytes) + 1);
  ExpectRejected(b, "header_bytes+1", "misaligned or exceeds");
}

TEST(CkptFormatFuzz, HeaderBytesBeyondFile) {
  auto b = Ref().bytes;
  SetU32(&b, kOffHeaderBytes,
         static_cast<uint32_t>((b.size() / kAlign + 2) * kAlign));
  ExpectRejected(b, "header beyond EOF", "misaligned or exceeds");
}

TEST(CkptFormatFuzz, ZeroHeaderBytes) {
  auto b = Ref().bytes;
  SetU32(&b, kOffHeaderBytes, 0);
  ExpectRejected(b, "header_bytes=0", "misaligned or exceeds");
}

TEST(CkptFormatFuzz, ZeroSignatureLen) {
  auto b = Ref().bytes;
  SetU32(&b, kOffSignatureLen, 0);
  ExpectRejected(b, "sig_len=0", "signature length");
}

TEST(CkptFormatFuzz, OversizedSignatureLen) {
  auto b = Ref().bytes;
  SetU32(&b, kOffSignatureLen, 5000);
  ExpectRejected(b, "sig_len=5000", "signature length");
}

TEST(CkptFormatFuzz, SignatureOverrunsHeaderRegion) {
  auto b = Ref().bytes;
  // In-cap length that still overruns the region before the crc trailer.
  SetU32(&b, kOffSignatureLen, GetU32(b, kOffHeaderBytes) - 4);
  FixHeaderCrc(&b);
  ExpectRejected(b, "sig overrun", "signature overruns");
}

TEST(CkptFormatFuzz, HeaderChecksumMismatch) {
  auto b = Ref().bytes;
  b[kFixedHeader] ^= 0x01;  // first signature byte, crc left stale
  ExpectRejected(b, "flipped signature byte", "header checksum mismatch");
}

TEST(CkptFormatFuzz, HeaderChecksumFieldTampered) {
  auto b = Ref().bytes;
  b[GetU32(b, kOffHeaderBytes) - 2] ^= 0x40;
  ExpectRejected(b, "flipped crc byte", "header checksum mismatch");
}

TEST(CkptFormatFuzz, ZeroNameLen) {
  auto b = Ref().bytes;
  SetU16(&b, FieldsAt(b, EntryOffset(b, 0)).name_len, 0);
  FixHeaderCrc(&b);
  ExpectRejected(b, "name_len=0", "missing or oversized name");
}

TEST(CkptFormatFuzz, OversizedNameLen) {
  auto b = Ref().bytes;
  SetU16(&b, FieldsAt(b, EntryOffset(b, 0)).name_len, 300);
  FixHeaderCrc(&b);
  ExpectRejected(b, "name_len=300", "missing or oversized name");
}

TEST(CkptFormatFuzz, UnknownDTypeCode) {
  auto b = Ref().bytes;
  b[FieldsAt(b, EntryOffset(b, 0)).dtype] = 9;
  FixHeaderCrc(&b);
  ExpectRejected(b, "dtype=9", "unknown dtype code");
}

TEST(CkptFormatFuzz, ReservedByteNonzero) {
  auto b = Ref().bytes;
  b[FieldsAt(b, EntryOffset(b, 0)).reserved] = 1;
  FixHeaderCrc(&b);
  ExpectRejected(b, "reserved=1", "unknown dtype code");
}

TEST(CkptFormatFuzz, ZeroRows) {
  auto b = Ref().bytes;
  SetU64(&b, FieldsAt(b, EntryOffset(b, 1)).rows, 0);
  FixHeaderCrc(&b);
  ExpectRejected(b, "rows=0", "empty or exceeds the format caps");
}

TEST(CkptFormatFuzz, DimExceedsCap) {
  auto b = Ref().bytes;
  SetU64(&b, FieldsAt(b, EntryOffset(b, 1)).rows, (uint64_t{1} << 24) + 1);
  FixHeaderCrc(&b);
  ExpectRejected(b, "rows=2^24+1", "exceeds the format caps");
}

TEST(CkptFormatFuzz, ElementCountExceedsCap) {
  auto b = Ref().bytes;
  // Each dim inside the per-dim cap; the product overflows the element cap
  // (and would overflow a 32-bit multiply if the loader used one).
  const EntryFields f = FieldsAt(b, EntryOffset(b, 1));
  SetU64(&b, f.rows, uint64_t{1} << 20);
  SetU64(&b, f.cols, uint64_t{1} << 20);
  FixHeaderCrc(&b);
  ExpectRejected(b, "2^40 elements", "exceeds the format caps");
}

TEST(CkptFormatFuzz, PayloadBytesShapeMismatch) {
  auto b = Ref().bytes;
  const EntryFields f = FieldsAt(b, EntryOffset(b, 0));
  SetU64(&b, f.payload_bytes,
         GetU32(b, f.payload_bytes) + 1);
  FixHeaderCrc(&b);
  ExpectRejected(b, "payload_bytes+1", "requires");
}

TEST(CkptFormatFuzz, ShapeGrownWithoutPayload) {
  auto b = Ref().bytes;
  // Doubling the rows without touching payload_bytes must be caught by the
  // shape/payload consistency check, never by reading past the payload.
  const EntryFields f = FieldsAt(b, EntryOffset(b, 2));
  SetU64(&b, f.rows, 2);
  FixHeaderCrc(&b);
  ExpectRejected(b, "rows doubled", "requires");
}

TEST(CkptFormatFuzz, MisalignedPayloadOffset) {
  auto b = Ref().bytes;
  const EntryFields f = FieldsAt(b, EntryOffset(b, 0));
  SetU64(&b, f.offset, GetU32(b, f.offset) + 8);
  FixHeaderCrc(&b);
  ExpectRejected(b, "offset+8", "misaligned or out of the file's bounds");
}

TEST(CkptFormatFuzz, PayloadOffsetInsideHeader) {
  auto b = Ref().bytes;
  SetU64(&b, FieldsAt(b, EntryOffset(b, 0)).offset, 0);
  FixHeaderCrc(&b);
  ExpectRejected(b, "offset=0", "misaligned or out of the file's bounds");
}

TEST(CkptFormatFuzz, PayloadOffsetBeyondFile) {
  auto b = Ref().bytes;
  const uint64_t past = (b.size() / kAlign + 4) * kAlign;
  SetU64(&b, FieldsAt(b, EntryOffset(b, 0)).offset, past);
  FixHeaderCrc(&b);
  ExpectRejected(b, "offset beyond EOF",
                 "misaligned or out of the file's bounds");
}

TEST(CkptFormatFuzz, PayloadOffsetOverflowBait) {
  auto b = Ref().bytes;
  // offset + payload_bytes wraps uint64; the bounds check must be written
  // overflow-safe (payload_bytes > file - offset) to catch it.
  SetU64(&b, FieldsAt(b, EntryOffset(b, 0)).offset,
         ~uint64_t{0} - kAlign + 1);
  FixHeaderCrc(&b);
  ExpectRejected(b, "offset=2^64-64",
                 "misaligned or out of the file's bounds");
}

TEST(CkptFormatFuzz, PayloadOverrunsFileEnd) {
  auto b = Ref().bytes;
  // Consistent (shape, payload_bytes) pair that points past EOF: grow the
  // f64 bias to a row of 4096 values = 32 KiB, far beyond the small file.
  const EntryFields f = FieldsAt(b, EntryOffset(b, 2));
  SetU64(&b, f.cols, 4096);
  SetU64(&b, f.payload_bytes, 4096 * 8);
  FixHeaderCrc(&b);
  ExpectRejected(b, "payload past EOF",
                 "misaligned or out of the file's bounds");
}

TEST(CkptFormatFuzz, BitFlippedPayload) {
  auto b = Ref().bytes;
  const EntryFields f = FieldsAt(b, EntryOffset(b, 0));
  b[GetU32(b, f.offset)] ^= 0x10;
  ExpectRejected(b, "payload bit flip", "payload checksum mismatch");
}

TEST(CkptFormatFuzz, PayloadCrcFieldTampered) {
  auto b = Ref().bytes;
  b[FieldsAt(b, EntryOffset(b, 1)).crc] ^= 0x01;
  FixHeaderCrc(&b);
  ExpectRejected(b, "crc field flip", "payload checksum mismatch");
}

TEST(CkptFormatFuzz, NonzeroHeaderPadding) {
  auto b = Ref().bytes;
  // Last byte before the crc trailer is padding in the reference layout.
  const size_t hb = GetU32(b, kOffHeaderBytes);
  const size_t last_entry = EntryOffset(b, 2);
  const size_t table_end =
      last_entry + (b[last_entry] | (b[last_entry + 1] << 8)) + 2 + 38;
  ASSERT_LT(table_end, hb - 4) << "reference layout has no padding";
  b[hb - 5] = 0xAB;
  FixHeaderCrc(&b);
  ExpectRejected(b, "padding byte", "non-zero bytes in the header padding");
}

TEST(CkptFormatFuzz, TruncatedMidPayload) {
  auto b = Ref().bytes;
  b.resize(b.size() - 1);
  ExpectRejected(b, "EOF-1", "out of the file's bounds");
}

TEST(CkptFormatFuzz, TruncatedToHeaderOnly) {
  auto b = Ref().bytes;
  b.resize(GetU32(b, kOffHeaderBytes));
  ExpectRejected(b, "header only", "out of the file's bounds");
}

TEST(CkptFormatFuzz, MissingFileIsIoError) {
  auto mapped = QuantizedCheckpoint::Map("/nonexistent/rpas.rpasq");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIoError);
}

// Every truncation length must be rejected cleanly — no crash, no
// out-of-bounds read (ASan-checked), typed error only.
TEST(CkptFormatFuzz, EveryTruncationRejected) {
  const auto& ref = Ref().bytes;
  for (size_t len = 1; len < ref.size(); len += 3) {
    std::vector<uint8_t> b(ref.begin(), ref.begin() + static_cast<long>(len));
    const Status st = MapBytes(b);
    ASSERT_FALSE(st.ok()) << "truncation to " << len << " bytes accepted";
    ASSERT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
}

// Single-tensor file: every byte is covered by the header checksum, the
// checksum fields themselves, or the payload checksum, so EVERY single-bit
// flip anywhere in the file must be rejected.
TEST(CkptFormatFuzz, EverySingleBitFlipRejected) {
  const std::string path = TmpPath("flip");
  const Matrix w = RefMatrix(3, 64);
  const std::vector<QTensorSpec> specs{{"w", DType::kQ8, &w}};
  ASSERT_TRUE(WriteQuantizedCheckpoint(path, "flip test", specs).ok());
  const std::vector<uint8_t> ref = ReadFileBytes(path);
  std::remove(path.c_str());
  ASSERT_TRUE(MapBytes(ref).ok());
  for (size_t i = 0; i < ref.size(); ++i) {
    std::vector<uint8_t> b = ref;
    b[i] ^= static_cast<uint8_t>(1u << (i % 8));
    const Status st = MapBytes(b);
    ASSERT_FALSE(st.ok()) << "bit flip at byte " << i << " accepted";
    ASSERT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
}

// Deterministic random-mutation corpus (the fuzz replay for tier-1 ctest):
// clusters of random byte mutations across the whole file. Any outcome is
// acceptable except a crash or an untyped error; a mutant that still maps
// must dequantize cleanly (no partially-valid object).
TEST(CkptFormatFuzz, RandomMutationCorpusReplay) {
  const auto& ref = Ref().bytes;
  Rng rng(0xF422u);
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<uint8_t> b = ref;
    const int mutations = 1 + static_cast<int>(rng.Uniform() * 8.0);
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = static_cast<size_t>(
          rng.Uniform() * static_cast<double>(b.size()));
      b[pos] = static_cast<uint8_t>(rng.Uniform() * 256.0);
    }
    const std::string path = TmpPath("mut");
    WriteFileBytes(path, b);
    auto mapped = QuantizedCheckpoint::Map(path);
    if (mapped.ok()) {
      // Mutations may land in dead bytes (inter-payload alignment pad);
      // the mapped object must still be fully usable.
      for (size_t i = 0; i < (*mapped)->num_tensors(); ++i) {
        Matrix decoded;
        ASSERT_TRUE(
            tensor::DequantizeToMatrix((*mapped)->tensor(i).view, &decoded)
                .ok());
      }
    } else {
      ASSERT_EQ(mapped.status().code(), StatusCode::kInvalidArgument)
          << mapped.status().ToString();
    }
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Round-trip and golden-file properties.
// ---------------------------------------------------------------------------

TEST(CkptFormatRoundTrip, SerializationIsDeterministic) {
  const std::string a = TmpPath("det_a");
  const std::string b = TmpPath("det_b");
  const Matrix w = RefMatrix(5, 70);
  const std::vector<QTensorSpec> specs{{"w", DType::kQ8, &w}};
  ASSERT_TRUE(WriteQuantizedCheckpoint(a, "det", specs).ok());
  ASSERT_TRUE(WriteQuantizedCheckpoint(b, "det", specs).ok());
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(CkptFormatRoundTrip, WriterRejectsMalformedSpecs) {
  const std::string path = TmpPath("w");
  const Matrix w = RefMatrix(2, 2);
  EXPECT_FALSE(WriteQuantizedCheckpoint(path, "", {{"w", DType::kF64, &w}})
                   .ok());
  EXPECT_FALSE(WriteQuantizedCheckpoint(path, "sig", {}).ok());
  EXPECT_FALSE(
      WriteQuantizedCheckpoint(path, "sig", {{"", DType::kF64, &w}}).ok());
  EXPECT_FALSE(WriteQuantizedCheckpoint(path, "sig",
                                        {{"w", DType::kF64, nullptr}})
                   .ok());
  EXPECT_FALSE(WriteQuantizedCheckpoint(
                   path, "sig", {{std::string(300, 'n'), DType::kF64, &w}})
                   .ok());
  // A non-finite value is refused, naming its tensor, before any file (or
  // temp file) exists — at every storage dtype.
  std::remove(path.c_str());
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (const DType dtype : {DType::kF64, DType::kQ8}) {
      Matrix poisoned = RefMatrix(2, 2);
      poisoned(1, 0) = bad;
      const Status st = WriteQuantizedCheckpoint(
          path, "sig",
          {{"w", DType::kF64, &w}, {"poisoned", dtype, &poisoned}});
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
      EXPECT_NE(st.ToString().find("'poisoned'"), std::string::npos)
          << st.ToString();
      EXPECT_FALSE(std::ifstream(path).is_open()) << bad;
      EXPECT_FALSE(
          std::ifstream(path + ".tmp." + std::to_string(::getpid())).is_open())
          << bad;
    }
  }
}

/// Overwrites element `element` of f64 tensor `index` in a valid rpasq image
/// and re-seals the payload and header checksums, so Map() accepts the file
/// and only a value check can refuse it.
void PatchF64(std::vector<uint8_t>* b, size_t index, size_t element,
              double value) {
  const EntryFields f = FieldsAt(*b, EntryOffset(*b, index));
  RPAS_CHECK((*b)[f.dtype] == static_cast<uint8_t>(DType::kF64));
  // Low halves of the u64 fields: these test files are far below 4 GiB.
  const size_t offset = GetU32(*b, f.offset);
  const size_t payload_bytes = GetU32(*b, f.payload_bytes);
  RPAS_CHECK(8 * (element + 1) <= payload_bytes);
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  SetU64(b, offset + 8 * element, bits);
  SetU32(b, f.crc, Crc32(b->data() + offset, payload_bytes));
  FixHeaderCrc(b);
}

// The writer refuses non-finite values, but a file from elsewhere can carry
// one under valid checksums. Both restore paths must refuse it: the owned
// fp64 restore (LoadParameters, under LoadCheckpoint) and the bias/scaler
// decode of a mapped-serving load (LoadQuantizedCheckpoint).
TEST(CkptFormatRoundTrip, NonFiniteValueRejectedByBothLoaders) {
  const std::string path = TmpPath("nonfinite");
  autodiff::Parameter w(RefMatrix(2, 3));
  ASSERT_TRUE(SaveParameters(path, "nonfinite", {&w}).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  PatchF64(&bytes, 0, 4, std::nan(""));
  WriteFileBytes(path, bytes);
  auto mapped = QuantizedCheckpoint::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  autodiff::Parameter restored(Matrix(2, 3));
  EXPECT_EQ(LoadParameters(path, "nonfinite", {&restored}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AssignDequantized((*mapped)->tensor(0), &restored).code(),
            StatusCode::kInvalidArgument);

  // An MLP checkpoint with an infinite first-layer bias (tensor 1).
  forecast::MlpForecaster::Options options;
  options.context_length = 8;
  options.horizon = 4;
  options.hidden_dim = 4;
  options.num_hidden_layers = 1;
  options.batch_size = 8;
  options.train.steps = 5;
  ts::TimeSeries series;
  for (size_t i = 0; i < 120; ++i) {
    series.values.push_back(10.0 + std::sin(0.3 * static_cast<double>(i)));
  }
  forecast::MlpForecaster model(options);
  ASSERT_TRUE(model.Fit(series).ok());
  ASSERT_TRUE(model.SaveCheckpoint(path).ok());
  bytes = ReadFileBytes(path);
  PatchF64(&bytes, 1, 0, HUGE_VAL);
  WriteFileBytes(path, bytes);
  forecast::MlpForecaster fresh(options);
  EXPECT_EQ(fresh.LoadCheckpoint(path).code(), StatusCode::kInvalidArgument);
  mapped = QuantizedCheckpoint::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(model.LoadQuantizedCheckpoint(*mapped).code(),
            StatusCode::kInvalidArgument);
  // The rejected load left the fitted model serving and trainable.
  EXPECT_TRUE(model.IncrementalUpdate(series, 4).ok());
  std::remove(path.c_str());
}

TEST(CkptFormatRoundTrip, PerDtypeRoundTripWithinBounds) {
  Rng rng(31337);
  Matrix w(6, 96);
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = 4.0 * rng.Normal();
  }
  for (DType dtype :
       {DType::kF64, DType::kF32, DType::kF16, DType::kQ8}) {
    const std::string path = TmpPath("rt");
    const std::vector<QTensorSpec> specs{{"w", dtype, &w}};
    ASSERT_TRUE(WriteQuantizedCheckpoint(path, "rt", specs).ok());
    auto mapped = QuantizedCheckpoint::Map(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    const QTensor* t = (*mapped)->Find("w");
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->view.dtype, dtype);
    Matrix decoded;
    ASSERT_TRUE(tensor::DequantizeToMatrix(t->view, &decoded).ok());
    ASSERT_EQ(decoded.rows(), w.rows());
    ASSERT_EQ(decoded.cols(), w.cols());
    // The decode must agree bit-for-bit with a direct encode+decode round
    // trip (the dequant GEMM path and the checkpoint path see identical
    // numbers), and the error vs fp64 must respect the dtype's bound.
    std::vector<uint8_t> payload(tensor::PayloadBytes(dtype, w.size()));
    std::vector<double> direct(w.size());
    tensor::EncodePayload(dtype, w.data(), w.size(), payload.data());
    tensor::DecodePayload(dtype, payload.data(), w.size(), direct.data());
    double max_err = 0.0;
    for (size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(decoded[i], direct[i]) << "index " << i;
      max_err = std::max(max_err, std::fabs(decoded[i] - w[i]));
    }
    switch (dtype) {
      case DType::kF64:
        EXPECT_EQ(max_err, 0.0);
        break;
      case DType::kF32:
        EXPECT_LE(max_err, 20.0 * 0x1p-24);
        break;
      case DType::kF16:
        EXPECT_LE(max_err, 20.0 * 0x1p-11);
        break;
      case DType::kQ8:
        // Affine 8-bit: error bounded by half a quantization step of the
        // worst 64-value block; 20 covers the value range comfortably.
        EXPECT_LE(max_err, 40.0 / 255.0);
        break;
    }
    EXPECT_EQ(max_err, tensor::MaxAbsError(dtype, w.data(), w.size()));
    std::remove(path.c_str());
  }
}

TEST(CkptFormatRoundTrip, F64ToF32RoundTripErrorBounded) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double x = 200.0 * (rng.Uniform() - 0.5);
    const double rt = static_cast<double>(static_cast<float>(x));
    EXPECT_LE(std::fabs(x - rt), std::fabs(x) * 0x1p-24 + 1e-300);
  }
}

TEST(CkptFormatRoundTrip, F16AllBitPatternsRoundTrip) {
  // decode(bits) -> encode must reproduce every canonical finite pattern
  // and both infinities exactly; NaNs must stay NaN.
  for (uint32_t bits = 0; bits <= 0xFFFF; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    const float f = tensor::F16BitsToF32(h);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(
          tensor::F16BitsToF32(tensor::F32ToF16Bits(f))));
      continue;
    }
    EXPECT_EQ(tensor::F32ToF16Bits(f), h) << "pattern 0x" << std::hex
                                          << bits;
  }
}

TEST(CkptFormatRoundTrip, Q8ConstantBlockIsExact) {
  Matrix w(1, 128);
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = 3.25;
  }
  std::vector<uint8_t> payload(tensor::PayloadBytes(DType::kQ8, w.size()));
  std::vector<double> decoded(w.size());
  tensor::EncodePayload(DType::kQ8, w.data(), w.size(), payload.data());
  tensor::DecodePayload(DType::kQ8, payload.data(), w.size(),
                        decoded.data());
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(decoded[i], 3.25);
  }
}

// A minimal valid file assembled byte-by-byte from the documented layout —
// decoding it proves the on-disk format is the literal little-endian byte
// sequence the spec prescribes, independent of host integer layout.
TEST(CkptFormatGolden, HandAssembledLittleEndianFileDecodes) {
  // One f64 tensor "w" of shape 1x2 with values {1.5, -2.0}, signature "s".
  // header: 28 fixed + 1 sig + (2+1+1+1+32+4 = 41) entry + pad + crc = 128.
  std::vector<uint8_t> b(128 + 16, 0);
  const uint8_t magic[8] = {'R', 'P', 'A', 'S', 'Q', '1', 0, 0};
  std::memcpy(b.data(), magic, 8);
  SetU32(&b, 8, 1);    // version
  SetU32(&b, 12, 0);   // flags
  SetU32(&b, 16, 1);   // num_tensors
  SetU32(&b, 20, 128); // header_bytes
  SetU32(&b, 24, 1);   // signature_len
  b[28] = 's';
  size_t e = 29;
  SetU16(&b, e, 1);  // name_len
  b[e + 2] = 'w';
  b[e + 3] = 0;  // dtype f64
  b[e + 4] = 0;  // reserved
  SetU64(&b, e + 5, 1);    // rows
  SetU64(&b, e + 13, 2);   // cols
  SetU64(&b, e + 21, 128); // offset
  SetU64(&b, e + 29, 16);  // payload_bytes
  // payload: two little-endian IEEE doubles.
  SetU64(&b, 128, 0x3FF8000000000000ull);  // 1.5
  SetU64(&b, 136, 0xC000000000000000ull);  // -2.0
  SetU32(&b, e + 37, Crc32(b.data() + 128, 16));
  SetU32(&b, 124, Crc32(b.data(), 124));

  const std::string path = TmpPath("hand");
  WriteFileBytes(path, b);
  auto mapped = QuantizedCheckpoint::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->signature(), "s");
  ASSERT_EQ((*mapped)->num_tensors(), 1u);
  Matrix decoded;
  ASSERT_TRUE(
      tensor::DequantizeToMatrix((*mapped)->tensor(0).view, &decoded).ok());
  EXPECT_EQ(decoded(0, 0), 1.5);
  EXPECT_EQ(decoded(0, 1), -2.0);
  std::remove(path.c_str());
}

/// The golden reference tensors: one quantizable weight and one exact
/// bias, built from platform-independent exact values.
std::vector<QTensorSpec> GoldenSpecs(const Matrix& w, const Matrix& bias,
                                     DType dtype) {
  return {{"w", dtype, &w}, {"b", DType::kF64, &bias}};
}

// Golden files committed under tests/data/ pin the byte format: any writer
// change that alters serialization breaks these, forcing a deliberate
// format-version decision. Regenerate with RPAS_REGEN_GOLDEN=1 (and commit
// the new bytes plus a version bump) only when the change is intentional.
TEST(CkptFormatGolden, GoldenFilesRoundTripByteIdentical) {
  const Matrix w = RefMatrix(8, 64);
  const Matrix bias = RefMatrix(1, 8);
  for (DType dtype :
       {DType::kF64, DType::kF32, DType::kF16, DType::kQ8}) {
    const std::string golden_path = StrFormat(
        "%s/golden_%s.rpasq", RPAS_TEST_DATA_DIR, tensor::DTypeName(dtype));
    const std::string signature =
        StrFormat("golden rpasq.v1 %s", tensor::DTypeName(dtype));
    if (std::getenv("RPAS_REGEN_GOLDEN") != nullptr) {
      ASSERT_TRUE(WriteQuantizedCheckpoint(golden_path, signature,
                                           GoldenSpecs(w, bias, dtype))
                      .ok());
    }
    // Re-serialize the same tensors and compare byte-for-byte.
    const std::string fresh = TmpPath("golden");
    ASSERT_TRUE(WriteQuantizedCheckpoint(fresh, signature,
                                         GoldenSpecs(w, bias, dtype))
                    .ok());
    const std::vector<uint8_t> golden_bytes = ReadFileBytes(golden_path);
    EXPECT_EQ(ReadFileBytes(fresh), golden_bytes)
        << "serialization of " << tensor::DTypeName(dtype)
        << " drifted from the committed golden file";
    std::remove(fresh.c_str());

    // The committed bytes must validate and decode to the reference
    // values within the dtype bound.
    auto mapped = QuantizedCheckpoint::Map(golden_path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ((*mapped)->signature(), signature);
    ASSERT_EQ((*mapped)->num_tensors(), 2u);
    Matrix decoded;
    ASSERT_TRUE(
        tensor::DequantizeToMatrix((*mapped)->tensor(0).view, &decoded)
            .ok());
    const double bound = tensor::MaxAbsError(dtype, w.data(), w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      ASSERT_LE(std::fabs(decoded[i] - w[i]), bound + 1e-12);
    }
    Matrix decoded_bias;
    ASSERT_TRUE(tensor::DequantizeToMatrix((*mapped)->tensor(1).view,
                                           &decoded_bias)
                    .ok());
    for (size_t i = 0; i < bias.size(); ++i) {
      ASSERT_EQ(decoded_bias[i], bias[i]);  // f64 sections decode exactly
    }
  }
}

TEST(CkptFormatGolden, MappedCheckpointReportsMappedBytes) {
  const std::string path = TmpPath("acct");
  const Matrix w = RefMatrix(4, 64);
  const std::vector<QTensorSpec> specs{{"w", DType::kQ8, &w}};
  ASSERT_TRUE(WriteQuantizedCheckpoint(path, "acct", specs).ok());
  auto mapped = QuantizedCheckpoint::Map(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_GT((*mapped)->file_bytes(), 0u);
  EXPECT_EQ((*mapped)->mapped_bytes() + (*mapped)->heap_bytes(),
            (*mapped)->file_bytes());
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE((*mapped)->is_mapped());
  EXPECT_EQ((*mapped)->mapped_bytes(), (*mapped)->file_bytes());
#endif
  std::remove(path.c_str());
}

TEST(CkptFormatGolden, AssignDequantizedChecksShape) {
  const std::string path = TmpPath("assign");
  const Matrix w = RefMatrix(2, 3);
  const std::vector<QTensorSpec> specs{{"w", DType::kF64, &w}};
  ASSERT_TRUE(WriteQuantizedCheckpoint(path, "assign", specs).ok());
  auto mapped = QuantizedCheckpoint::Map(path);
  ASSERT_TRUE(mapped.ok());
  autodiff::Parameter wrong(Matrix(3, 2));
  const Matrix before = wrong.value;
  EXPECT_FALSE(AssignDequantized((*mapped)->tensor(0), &wrong).ok());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(wrong.value[i], before[i]);  // untouched on error
  }
  autodiff::Parameter right(Matrix(2, 3));
  ASSERT_TRUE(AssignDequantized((*mapped)->tensor(0), &right).ok());
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(right.value[i], w[i]);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rpas::nn
