// rpas_quantize — re-encodes rpasq.v1 checkpoints (nn/qcheckpoint.h) at a
// smaller storage dtype, and inspects rpasq files.
//
// Usage:
//   rpas_quantize --in=model.ckpt --out=model.rpasq [--dtype=q8]
//       Converts any rpasq.v1 checkpoint, such as the fp64 one `rpas train`
//       writes. --dtype selects the storage type for weight matrices
//       (q8 | f16 | f32 | f64, default q8); vectors and tiny tensors always
//       stay exact fp64 (see nn::StorageDType). The output is written via
//       temp file + atomic rename, so it is safe to replace a checkpoint
//       that is currently being served from a mapping.
//
//   rpas_quantize --inspect=model.rpasq
//       Validates an rpasq.v1 file (header, checksums, bounds) and prints
//       its tensor table.
//
// Exit status: 0 on success, 1 on a conversion/validation error, 2 on
// usage errors.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "nn/qcheckpoint.h"
#include "tensor/quant.h"

namespace {

using namespace rpas;

size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return 0;
  }
  const std::streamoff size = in.tellg();
  return size > 0 ? static_cast<size_t>(size) : 0;
}

int Usage(std::FILE* out) {
  std::fprintf(out,
               "usage:\n"
               "  rpas_quantize --in=model.ckpt --out=model.rpasq "
               "[--dtype=q8|f16|f32|f64]\n"
               "      --in takes any rpasq.v1 checkpoint, such as the one "
               "`rpas train` writes\n"
               "  rpas_quantize --inspect=model.rpasq\n");
  return out == stdout ? 0 : 2;
}

int Inspect(const std::string& path) {
  auto mapped = nn::QuantizedCheckpoint::Map(path);
  if (!mapped.ok()) {
    std::fprintf(stderr, "rpas_quantize: %s: %s\n", path.c_str(),
                 mapped.status().ToString().c_str());
    return 1;
  }
  const nn::QuantizedCheckpoint& ckpt = **mapped;
  std::printf("%s: rpasq.v1, %zu tensors, %zu bytes (%s)\n", path.c_str(),
              ckpt.num_tensors(), ckpt.file_bytes(),
              ckpt.is_mapped() ? "mapped" : "heap");
  std::printf("signature: %s\n", ckpt.signature().c_str());
  std::printf("%-8s %-6s %10s %10s %12s\n", "name", "dtype", "rows", "cols",
              "bytes");
  for (size_t i = 0; i < ckpt.num_tensors(); ++i) {
    const nn::QTensor& t = ckpt.tensor(i);
    std::printf("%-8s %-6s %10zu %10zu %12zu\n", t.name.c_str(),
                tensor::DTypeName(t.view.dtype), t.view.rows, t.view.cols,
                t.view.payload_bytes);
  }
  return 0;
}

int Convert(const std::string& in_path, const std::string& out_path,
            const std::string& dtype_name) {
  const Result<tensor::DType> target = tensor::ParseDType(dtype_name);
  if (!target.ok()) {
    std::fprintf(stderr, "rpas_quantize: unknown --dtype=%s\n",
                 dtype_name.c_str());
    return 2;
  }
  const Status status =
      nn::QuantizeCheckpointFile(in_path, out_path, *target);
  if (!status.ok()) {
    std::fprintf(stderr, "rpas_quantize: %s\n", status.ToString().c_str());
    return 1;
  }
  const size_t in_bytes = FileBytes(in_path);
  const size_t out_bytes = FileBytes(out_path);
  std::printf("%s (%zu bytes) -> %s (%zu bytes, dtype=%s, %.2fx smaller)\n",
              in_path.c_str(), in_bytes, out_path.c_str(), out_bytes,
              tensor::DTypeName(*target),
              out_bytes > 0 ? static_cast<double>(in_bytes) /
                                  static_cast<double>(out_bytes)
                            : 0.0);
  return Inspect(out_path);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      return Usage(stdout);
    }
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "rpas_quantize: unexpected argument: %s\n", arg);
      return Usage(stderr);
    }
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr) {
      flags[std::string(arg + 2)] = "1";
    } else {
      flags[std::string(arg + 2, eq)] = eq + 1;
    }
  }
  if (flags.count("inspect") > 0) {
    return Inspect(flags["inspect"]);
  }
  if (flags.count("in") == 0 || flags.count("out") == 0) {
    return Usage(stderr);
  }
  const std::string dtype =
      flags.count("dtype") > 0 ? flags["dtype"] : "q8";
  return Convert(flags["in"], flags["out"], dtype);
}
