// Quantized checkpoint serving: storage dtype x tenant-count grid.
//
// Each cell registers one model version per tenant (alternating MLP /
// DeepAR architectures) backed by rpasq.v1 checkpoints at one storage
// dtype — f64 / f32 / f16 / q8 — and reports, per warm tenant: resident
// cache bytes (split into mmap-backed and heap), cold-start milliseconds
// (registry Acquire of a cold version: map + validate), and the wQL delta
// against the exact f64 row on a held-out window set with fixed sampling
// seeds.
//
// Asserted invariants (exit 1 on violation):
//   - batched PredictBatch is bit-identical to unbatched PredictSeeded
//     within every dtype (the kernel dequant path preserves the serving
//     determinism contract);
//   - q8 wQL delta <= 0.5% and f16 wQL delta <= 0.05% vs fp64;
//   - q8 warm-cache bytes/tenant is >= 4x smaller than the f64 row.
//
// --json=PATH writes a machine-readable summary for the CI smoke step.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/strings.h"
#include "nn/qcheckpoint.h"
#include "serve/registry.h"
#include "tensor/quant.h"
#include "trace/generator.h"
#include "ts/metrics.h"

namespace rpas::bench {
namespace {

constexpr size_t kServeContext = 24;
constexpr size_t kServeHorizon = 12;
constexpr uint64_t kEvalSeedBase = 0x51CED;

forecast::MlpForecaster::Options ServeMlpOptions(const BenchOptions& options) {
  forecast::MlpForecaster::Options mlp;
  mlp.context_length = kServeContext;
  mlp.horizon = kServeHorizon;
  mlp.hidden_dim = 48;
  mlp.num_hidden_layers = 1;
  mlp.batch_size = 16;
  mlp.train.steps = options.quick ? 30 : 80;
  mlp.train.lr = 1e-3;
  return mlp;
}

forecast::DeepArForecaster::Options ServeDeepArOptions(
    const BenchOptions& options) {
  forecast::DeepArForecaster::Options deepar;
  deepar.context_length = kServeContext;
  deepar.horizon = kServeHorizon;
  deepar.hidden_dim = 20;
  deepar.batch_size = 8;
  deepar.num_samples = options.quick ? 12 : 16;
  deepar.train.steps = options.quick ? 30 : 80;
  deepar.train.lr = 1e-3;
  return deepar;
}

/// Evaluation windows carved from the trace tail (context + horizon each,
/// stride = horizon), shared by every dtype row.
struct EvalSet {
  std::vector<forecast::ForecastInput> inputs;
  std::vector<std::vector<double>> actuals;
  std::vector<uint64_t> seeds;
};

EvalSet BuildEvalSet(const ts::TimeSeries& series, size_t eval_steps) {
  EvalSet set;
  const size_t first = series.size() - eval_steps;
  for (size_t target = first; target + kServeHorizon <= series.size();
       target += kServeHorizon) {
    forecast::ForecastInput input;
    input.start_index = target - kServeContext;
    input.step_minutes = series.step_minutes;
    input.context.assign(
        series.values.begin() + static_cast<long>(target - kServeContext),
        series.values.begin() + static_cast<long>(target));
    set.inputs.push_back(std::move(input));
    set.actuals.emplace_back(
        series.values.begin() + static_cast<long>(target),
        series.values.begin() + static_cast<long>(target + kServeHorizon));
    set.seeds.push_back(kEvalSeedBase + set.seeds.size());
  }
  return set;
}

/// Mean wQL of `model` over the eval windows, served via the batched path.
/// Also asserts batched == unbatched bit-identity within this model.
double EvalWql(const forecast::Forecaster& model, const EvalSet& eval,
               bool* identical) {
  auto batched = model.PredictBatch(eval.inputs, eval.seeds);
  RPAS_CHECK(batched.ok()) << batched.status().ToString();
  for (size_t i = 0; i < eval.inputs.size(); ++i) {
    auto single = model.PredictSeeded(eval.inputs[i], eval.seeds[i]);
    RPAS_CHECK(single.ok()) << single.status().ToString();
    const ts::QuantileForecast& a = (*batched)[i];
    const ts::QuantileForecast& b = *single;
    for (size_t h = 0; h < a.Horizon(); ++h) {
      for (size_t q = 0; q < a.Levels().size(); ++q) {
        if (a.ValueAtIndex(h, q) != b.ValueAtIndex(h, q)) {
          *identical = false;
        }
      }
    }
  }
  const ts::AccuracyReport report =
      ts::EvaluateForecasts(*batched, eval.actuals, model.Levels());
  return report.mean_wql;
}

struct DtypeSpec {
  std::string label;  ///< row label ("f64", "q8", ...)
  tensor::DType dtype = tensor::DType::kF64;  ///< rpasq storage dtype
};

struct RowResult {
  std::string label;
  size_t tenants = 0;
  double bytes_per_tenant = 0.0;
  size_t mapped_bytes = 0;
  size_t heap_bytes = 0;
  double cold_ms = 0.0;  ///< mean Acquire() ms for a cold version
  double wql = 0.0;
  double wql_delta_pct = 0.0;  ///< vs the f64 row
};

/// Registers `tenants` versions (alternating MLP/DeepAR) backed by
/// per-version checkpoint files converted to the row's dtype, acquires them
/// all on a cold registry, and measures byte/latency/accuracy columns.
RowResult RunRow(const BenchOptions& options, const DtypeSpec& spec,
                 size_t tenants, const std::string& mlp_ckpt,
                 const std::string& deepar_ckpt, const EvalSet& eval,
                 bool* identical) {
  // Per-version checkpoint files: per-tenant models, so cold-start cost
  // and cache bytes scale with the tenant count, not with two shared
  // files.
  std::vector<std::string> paths;
  std::vector<serve::ModelId> models;
  for (size_t v = 0; v < tenants; ++v) {
    const bool is_mlp = v % 2 == 0;
    std::string path = StrFormat("/tmp/rpas_qserve_%s_%s_v%zu.rpasq",
                                 spec.label.c_str(), is_mlp ? "mlp" : "deepar",
                                 v);
    RPAS_CHECK(nn::QuantizeCheckpointFile(is_mlp ? mlp_ckpt : deepar_ckpt,
                                          path, spec.dtype)
                   .ok());
    paths.push_back(std::move(path));
    models.push_back({is_mlp ? "mlp" : "deepar", v + 1});
  }

  auto make_registry = [&] {
    serve::ModelRegistry::Options reg_options;
    reg_options.cache_budget_bytes = static_cast<size_t>(-1) / 2;
    auto registry = std::make_unique<serve::ModelRegistry>(reg_options);
    for (size_t v = 0; v < tenants; ++v) {
      serve::ForecasterFactory factory;
      const BenchOptions bench = options;
      if (v % 2 == 0) {
        factory = [bench] {
          return std::make_unique<forecast::MlpForecaster>(
              ServeMlpOptions(bench));
        };
      } else {
        factory = [bench] {
          return std::make_unique<forecast::DeepArForecaster>(
              ServeDeepArOptions(bench));
        };
      }
      RPAS_CHECK(registry
                     ->RegisterVersion(models[v], paths[v],
                                       std::move(factory))
                     .ok());
    }
    return registry;
  };

  // Cold-start latency: every Acquire below maps + validates a cold
  // checkpoint. Keep the fastest of a few reps.
  constexpr int kTimingReps = 3;
  RowResult row;
  std::unique_ptr<serve::ModelRegistry> registry;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    registry = make_registry();
    const double millis = TimedMillis("quantized.cold_acquire", 1, [&] {
      for (const serve::ModelId& id : models) {
        auto model = registry->Acquire(id);
        RPAS_CHECK(model.ok()) << model.status().ToString();
      }
    });
    const double per_model = millis / static_cast<double>(tenants);
    row.cold_ms = rep == 0 ? per_model : std::min(row.cold_ms, per_model);
  }

  const serve::ModelRegistry::CacheStats stats = registry->GetCacheStats();
  RPAS_CHECK(stats.resident_models == tenants);
  row.label = spec.label;
  row.tenants = tenants;
  row.bytes_per_tenant = static_cast<double>(stats.resident_bytes) /
                         static_cast<double>(tenants);
  row.mapped_bytes = stats.mapped_bytes;
  row.heap_bytes = stats.heap_bytes;

  // Accuracy: one fitted model per architecture is enough (all versions of
  // an architecture share weights).
  auto mlp = registry->Acquire(models[0]);
  RPAS_CHECK(mlp.ok());
  row.wql = EvalWql(**mlp, eval, identical);
  if (tenants > 1) {
    auto deepar = registry->Acquire(models[1]);
    RPAS_CHECK(deepar.ok());
    row.wql = 0.5 * (row.wql + EvalWql(**deepar, eval, identical));
  }
  return row;
}

void WriteJson(const std::string& path, const std::vector<RowResult>& rows,
               bool identical, bool bounds_ok) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "quantized_serving: cannot write %s\n",
                 path.c_str());
    return;
  }
  out << "{\"bench\":\"quantized_serving\",\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowResult& r = rows[i];
    out << (i > 0 ? "," : "")
        << StrFormat("{\"dtype\":\"%s\",\"tenants\":%zu,"
                     "\"bytes_per_tenant\":%.1f,\"mapped_bytes\":%zu,"
                     "\"heap_bytes\":%zu,\"cold_ms\":%.4f,\"wql\":%.6f,"
                     "\"wql_delta_pct\":%.4f}",
                     r.label.c_str(), r.tenants, r.bytes_per_tenant,
                     r.mapped_bytes, r.heap_bytes, r.cold_ms, r.wql,
                     r.wql_delta_pct);
  }
  out << StrFormat("],\"batched_identical\":%s,\"bounds_ok\":%s}\n",
                   identical ? "true" : "false",
                   bounds_ok ? "true" : "false");
}

void RunQuantizedServing(const BenchOptions& options, size_t only_tenants,
                         const std::string& json_path) {
  std::vector<size_t> tenant_counts{8, 16};
  if (options.quick && only_tenants == 0) {
    tenant_counts = {8};
  }
  if (only_tenants > 0) {
    tenant_counts = {only_tenants};
  }

  // One trained model per architecture; the last 2 days are held out for
  // the wQL columns.
  trace::SyntheticTraceGenerator generator(trace::AlibabaProfile(),
                                           options.seed);
  const ts::TimeSeries series = generator.GenerateCpu(12 * kStepsPerDay);
  const size_t eval_steps = 2 * kStepsPerDay;
  ts::TimeSeries train = series;
  train.values.resize(series.size() - eval_steps);

  forecast::MlpForecaster mlp(ServeMlpOptions(options));
  RPAS_CHECK(mlp.Fit(train).ok());
  forecast::DeepArForecaster deepar(ServeDeepArOptions(options));
  RPAS_CHECK(deepar.Fit(train).ok());
  const std::string mlp_ckpt = "/tmp/rpas_qserve_mlp.ckpt";
  const std::string deepar_ckpt = "/tmp/rpas_qserve_deepar.ckpt";
  RPAS_CHECK(mlp.SaveCheckpoint(mlp_ckpt).ok());
  RPAS_CHECK(deepar.SaveCheckpoint(deepar_ckpt).ok());

  const EvalSet eval = BuildEvalSet(series, eval_steps);

  // The first row is the exact baseline every delta is measured against.
  const std::vector<DtypeSpec> specs{
      {"f64", tensor::DType::kF64},
      {"f32", tensor::DType::kF32},
      {"f16", tensor::DType::kF16},
      {"q8", tensor::DType::kQ8},
  };

  TablePrinter table({"dtype", "tenants", "bytes/tenant", "mapped_KiB",
                      "heap_KiB", "cold_ms", "wQL", "wQL_delta_%"});
  std::vector<RowResult> rows;
  bool identical = true;
  for (size_t tenants : tenant_counts) {
    double baseline_wql = 0.0;
    for (const DtypeSpec& spec : specs) {
      RowResult row = RunRow(options, spec, tenants, mlp_ckpt, deepar_ckpt,
                             eval, &identical);
      if (&spec == &specs.front()) {
        baseline_wql = row.wql;
      }
      row.wql_delta_pct =
          baseline_wql > 0.0
              ? 100.0 * std::fabs(row.wql - baseline_wql) / baseline_wql
              : 0.0;
      table.AddRow({row.label, StrFormat("%zu", row.tenants),
                    Num(row.bytes_per_tenant), Num(row.mapped_bytes / 1024.0),
                    Num(row.heap_bytes / 1024.0), Num(row.cold_ms),
                    Num(row.wql, 6), Num(row.wql_delta_pct)});
      rows.push_back(row);
    }
  }
  table.Print("Quantized checkpoint serving (per-tenant versions, warm "
              "cache fits all)");
  if (options.csv) {
    table.PrintCsv();
  }

  // Acceptance bounds: wQL deltas and the q8 compression ratio, both
  // against the f64 row of the same tenant count.
  bool bounds_ok = true;
  for (size_t base = 0; base < rows.size(); base += specs.size()) {
    const RowResult& f64 = rows[base];
    for (size_t i = 0; i < specs.size(); ++i) {
      const RowResult& row = rows[base + i];
      if (row.label == "q8") {
        if (row.wql_delta_pct > 0.5) {
          bounds_ok = false;
          std::fprintf(stderr, "BOUND VIOLATION: q8 wQL delta %.4f%% > 0.5%%\n",
                       row.wql_delta_pct);
        }
        const double ratio = f64.bytes_per_tenant / row.bytes_per_tenant;
        if (ratio < 4.0) {
          bounds_ok = false;
          std::fprintf(stderr,
                       "BOUND VIOLATION: q8 compression %.2fx < 4x vs f64\n",
                       ratio);
        }
      }
      if (row.label == "f16" && row.wql_delta_pct > 0.05) {
        bounds_ok = false;
        std::fprintf(stderr, "BOUND VIOLATION: f16 wQL delta %.4f%% > 0.05%%\n",
                     row.wql_delta_pct);
      }
    }
  }
  std::printf("batched == unbatched within every dtype: %s\n",
              identical ? "identical" : "MISMATCH");
  std::printf("wQL / compression bounds: %s\n", bounds_ok ? "ok" : "VIOLATED");

  if (!json_path.empty()) {
    WriteJson(json_path, rows, identical, bounds_ok);
  }
  if (!identical || !bounds_ok) {
    std::exit(1);
  }
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  size_t only_tenants = 0;
  std::string json_path;
  const std::vector<rpas::bench::BenchFlagSpec> extra{
      {"--tenants=", "run only this tenant count (default grid 8,16)",
       [&](const std::string& v) {
         only_tenants = static_cast<size_t>(std::strtoull(v.c_str(),
                                                          nullptr, 10));
       }},
      {"--json=", "write a machine-readable summary to this path",
       [&](const std::string& v) { json_path = v; }},
  };
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv,
      "Quantized checkpoint serving: dtype x tenants grid "
      "(bytes/tenant, cold-start ms, wQL delta)",
      extra);
  rpas::bench::EnableMetricsIfRequested(options);
  rpas::bench::RunQuantizedServing(options, only_tenants, json_path);
  return 0;
}
