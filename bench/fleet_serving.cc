// Multi-tenant forecast-serving throughput: cross-tenant batching vs
// per-request serving over a tenants x threads grid.
//
// The fleet assigns each tenant one of `--versions` registered model
// versions (alternating MLP / DeepAR architectures). The registry's warm
// cache is budgeted to hold only half of the version set, so per-request
// arrival-order serving cycles through more versions than fit — the LRU
// worst case, one checkpoint load per request — while batched serving
// loads each version at most once per round and amortizes it across that
// version's tenants with a row-stacked forward pass. An all-warm control
// row (cache fits every version) separates the cache-amortization win
// from the stacked-forward win. Answers are bit-identical in both modes
// (BatchEngine's determinism contract); the bench asserts this.
//
// A contended all-warm section times hit-only serving with one registry
// shared across shards, every Acquire taking the registry's one mutex.
// Named checks: results identical across modes, shards and threads; every
// section ran; every row timed (ms and req/s > 0); contended rows hit.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "serve/fleet.h"
#include "serve/registry.h"
#include "trace/generator.h"

namespace rpas::bench {
namespace {

constexpr size_t kServeContext = 24;
constexpr size_t kServeHorizon = 12;
constexpr size_t kReplanEvery = 4;

size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return 0;
  }
  const std::streamoff size = in.tellg();
  return size > 0 ? static_cast<size_t>(size) : 0;
}

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

/// The registered version universe: `num_versions` checkpoints alternating
/// the two neural architectures, plus everything needed to rebuild a fresh
/// registry per grid cell.
struct VersionSet {
  std::vector<serve::ModelId> models;       ///< arrival-order assignment
  std::vector<std::string> paths;           ///< checkpoint per version
  size_t total_bytes = 0;
  BenchOptions bench;
};

VersionSet BuildVersions(const BenchOptions& options, size_t num_versions) {
  // Train one model per architecture; version v re-saves the same weights
  // under its own checkpoint file (standing in for per-tenant retraining —
  // the serving cost of a version switch is the checkpoint map + load,
  // which is what the warm cache exists to amortize).
  trace::SyntheticTraceGenerator generator(trace::AlibabaProfile(),
                                           options.seed);
  const ts::TimeSeries train = generator.GenerateCpu(10 * kStepsPerDay);

  forecast::MlpForecaster mlp(ServeMlpOptions(options));
  RPAS_CHECK(mlp.Fit(train).ok());
  forecast::DeepArForecaster deepar(ServeDeepArOptions(options));
  RPAS_CHECK(deepar.Fit(train).ok());

  VersionSet set;
  set.bench = options;
  for (size_t v = 0; v < num_versions; ++v) {
    const bool is_mlp = v % 2 == 0;
    const std::string path = StrFormat("/tmp/rpas_fleet_%s_v%zu.ckpt",
                                       is_mlp ? "mlp" : "deepar", v);
    if (is_mlp) {
      RPAS_CHECK(mlp.SaveCheckpoint(path).ok());
    } else {
      RPAS_CHECK(deepar.SaveCheckpoint(path).ok());
    }
    set.models.push_back({is_mlp ? "mlp" : "deepar", v + 1});
    set.paths.push_back(path);
    set.total_bytes += FileBytes(path);
  }
  return set;
}

std::unique_ptr<serve::ModelRegistry> MakeRegistry(const VersionSet& set,
                                                   size_t budget_bytes) {
  serve::ModelRegistry::Options options;
  options.cache_budget_bytes = budget_bytes;
  auto registry = std::make_unique<serve::ModelRegistry>(options);
  const BenchOptions bench = set.bench;
  for (size_t v = 0; v < set.models.size(); ++v) {
    serve::ForecasterFactory factory;
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
                   ->RegisterVersion(set.models[v], set.paths[v],
                                     std::move(factory))
                   .ok());
  }
  return registry;
}

struct CellResult {
  double millis = 0.0;
  serve::FleetResult fleet;
};

double ReqPerSec(const CellResult& cell) {
  const double seconds = cell.millis / 1000.0;
  return seconds > 0.0
             ? static_cast<double>(cell.fleet.requests_admitted) / seconds
             : 0.0;
}

CellResult RunCell(const VersionSet& set, size_t tenants, int threads,
                   bool batched, size_t budget_bytes, size_t rounds,
                   size_t shards = 1, bool per_shard_registries = false) {
  // Single-shot wall timings are noisy on small machines, so time the cell
  // a few times and keep the fastest run. Each repetition rebuilds the
  // registry so the warm cache starts cold every time; the FleetResult is
  // identical across repetitions (RunFleet is deterministic), so any one
  // of them can be reported.
  constexpr int kTimingReps = 3;
  SetRpasThreads(threads);
  serve::FleetOptions fleet_options;
  fleet_options.num_tenants = tenants;
  fleet_options.num_steps = rounds * kReplanEvery;
  fleet_options.history_steps = kServeContext;
  fleet_options.replan_every = kReplanEvery;
  fleet_options.seed = set.bench.seed;
  fleet_options.batched = batched;
  fleet_options.num_shards = shards;
  if (per_shard_registries && shards > 1) {
    // Each shard owns its own registry (same version universe, same
    // budget), so shards never contend on one registry mutex.
    const VersionSet* set_ptr = &set;
    fleet_options.shard_registry_factory = [set_ptr, budget_bytes] {
      return MakeRegistry(*set_ptr, budget_bytes);
    };
  }
  CellResult cell;
  cell.millis = 0.0;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    std::unique_ptr<serve::ModelRegistry> registry =
        MakeRegistry(set, budget_bytes);
    const double millis = TimedMillis("fleet.serve", [&] {
      auto result = serve::RunFleet(registry.get(), set.models, fleet_options);
      RPAS_CHECK(result.ok()) << result.status().ToString();
      cell.fleet = std::move(*result);
    });
    cell.millis = rep == 0 ? millis : std::min(cell.millis, millis);
  }
  SetRpasThreads(0);
  return cell;
}

/// All-warm, hit-only contended cell: ONE registry shared by every shard,
/// warmed by acquiring each version once before timing, so the timed runs
/// never miss — every shard's Acquire() is a concurrent warm hit on the
/// same registry mutex.
CellResult RunWarmCell(const VersionSet& set, size_t tenants, int threads,
                       size_t shards, bool batched, size_t rounds) {
  constexpr int kTimingReps = 3;
  SetRpasThreads(threads);
  serve::FleetOptions fleet_options;
  fleet_options.num_tenants = tenants;
  fleet_options.num_steps = rounds * kReplanEvery;
  fleet_options.history_steps = kServeContext;
  fleet_options.replan_every = kReplanEvery;
  fleet_options.seed = set.bench.seed;
  fleet_options.batched = batched;
  fleet_options.num_shards = shards;
  std::unique_ptr<serve::ModelRegistry> registry =
      MakeRegistry(set, set.total_bytes);
  for (const serve::ModelId& id : set.models) {
    auto model = registry->Acquire(id);
    RPAS_CHECK(model.ok()) << model.status().ToString();
  }
  CellResult cell;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    const double millis = TimedMillis("fleet.serve_warm", [&] {
      auto result = serve::RunFleet(registry.get(), set.models, fleet_options);
      RPAS_CHECK(result.ok()) << result.status().ToString();
      cell.fleet = std::move(*result);
    });
    cell.millis = rep == 0 ? millis : std::min(cell.millis, millis);
  }
  SetRpasThreads(0);
  return cell;
}

std::vector<obs::ScalingDecision> RunFleetServing(
    const BenchOptions& options, size_t only_tenants, int only_threads,
    size_t rounds_flag, size_t num_versions, size_t only_shards,
    Report* report) {
  const size_t rounds = rounds_flag > 0 ? rounds_flag
                        : options.quick ? 3
                                        : 6;
  std::vector<size_t> tenant_counts{8, 16, 64};
  if (options.quick && only_tenants == 0) {
    tenant_counts = {8, 16};
  }
  if (only_tenants > 0) {
    tenant_counts = {only_tenants};
  }
  std::vector<int> thread_counts{1, 2};
  if (only_threads > 0) {
    thread_counts = {only_threads};
  }

  const VersionSet set = BuildVersions(options, num_versions);
  // Warm cache holds only half the version universe: per-request serving
  // that cycles through more versions than fit reloads on every request.
  // The registry serves every version from its mapping and charges mapped
  // bytes at mapped_byte_weight, so the budget is sized in charged bytes.
  const double mapped_weight =
      serve::ModelRegistry::Options{}.mapped_byte_weight;
  const size_t tight_budget = static_cast<size_t>(
      mapped_weight * static_cast<double>(set.total_bytes) / 2.0);

  Table& table = report->AddTable(
      "grid",
      StrFormat("Fleet serving throughput (%zu versions, %zu rounds, warm "
                "cache budget %zu KiB charged of %zu KiB on disk at mapped "
                "weight %.2f)",
                set.models.size(), rounds, tight_budget >> 10,
                set.total_bytes >> 10, mapped_weight),
      {"tenants", "threads", "mode", "ms/run", "req/s", "cache_hits",
       "cache_misses", "ckpt_loads", "speedup"});
  bool all_identical = true;
  bool timed = true;
  size_t all_warm_rows = 0;
  size_t contended_rows = 0;
  size_t scaling_rows = 0;
  auto add_row = [&](size_t tenants, int threads, const std::string& mode,
                     const CellResult& cell, double speedup) {
    table.AddRow({Int(tenants), Int(threads), mode, Real(cell.millis),
                  Real(ReqPerSec(cell)), Int(cell.fleet.cache.hits),
                  Int(cell.fleet.cache.misses), Int(cell.fleet.cache.loads),
                  speedup > 0.0 ? Real(speedup) : Cell()});
    timed = timed && cell.millis > 0.0 && ReqPerSec(cell) > 0.0;
  };
  for (size_t tenants : tenant_counts) {
    for (int threads : thread_counts) {
      const CellResult unbatched =
          RunCell(set, tenants, threads, /*batched=*/false, tight_budget,
                  rounds);
      const CellResult batched =
          RunCell(set, tenants, threads, /*batched=*/true, tight_budget,
                  rounds);
      all_identical =
          all_identical &&
          batched.fleet.mean_under_provision_rate ==
              unbatched.fleet.mean_under_provision_rate &&
          batched.fleet.mean_utilization == unbatched.fleet.mean_utilization;
      add_row(tenants, threads, "unbatched", unbatched, 0.0);
      add_row(tenants, threads, "batched", batched,
              batched.millis > 0.0 ? unbatched.millis / batched.millis : 0.0);
    }
  }
  // Control: every version fits warm, isolating the stacked-forward win
  // from the cache-amortization win at the largest tenant count.
  {
    const size_t tenants = tenant_counts.back();
    const CellResult unbatched = RunCell(set, tenants, 1, /*batched=*/false,
                                         set.total_bytes, rounds);
    const CellResult batched = RunCell(set, tenants, 1, /*batched=*/true,
                                       set.total_bytes, rounds);
    add_row(tenants, 1, "unbatched/all-warm", unbatched, 0.0);
    add_row(tenants, 1, "batched/all-warm", batched,
            batched.millis > 0.0 ? unbatched.millis / batched.millis : 0.0);
    all_warm_rows += 2;
  }
  table.Print();

  // Contended hit path: one registry shared by every shard, every version
  // warm before timing, so the serving loop is 100% warm hits racing on
  // the registry's one mutex.
  {
    const size_t tenants = tenant_counts.back();
    std::vector<size_t> contended_shards{1, 2, 4};
    if (only_shards > 0) {
      contended_shards = {only_shards};
    }
    Table& contended = report->AddTable(
        "all_warm_contended",
        StrFormat("Contended all-warm hit path (shared registry, %zu rounds)",
                  rounds),
        {"tenants", "shards", "threads", "mode", "ms/run", "req/s",
         "cache_hits", "cache_misses", "speedup_vs_serial"});
    bool warm_hits = true;
    CellResult serial;
    for (size_t shards : contended_shards) {
      const int threads = static_cast<int>(shards);
      const CellResult cell = RunWarmCell(set, tenants, threads, shards,
                                          /*batched=*/true, rounds);
      if (shards == contended_shards.front()) {
        serial = cell;
      }
      all_identical =
          all_identical &&
          cell.fleet.mean_under_provision_rate ==
              serial.fleet.mean_under_provision_rate &&
          cell.fleet.mean_utilization == serial.fleet.mean_utilization;
      const double speedup =
          cell.millis > 0.0 ? serial.millis / cell.millis : 0.0;
      contended.AddRow({Int(tenants), Int(shards), Int(threads),
                        "batched/all-warm", Real(cell.millis),
                        Real(ReqPerSec(cell)), Int(cell.fleet.cache.hits),
                        Int(cell.fleet.cache.misses), Real(speedup)});
      timed = timed && cell.millis > 0.0 && ReqPerSec(cell) > 0.0;
      // Hit-only traffic: misses stop at the warm-up loads.
      warm_hits = warm_hits && cell.fleet.cache.hits > 0;
      ++contended_rows;
    }
    contended.Print();
    report->Check("contended_warm_hits", warm_hits,
                  "cache_hits > 0 in every contended all-warm row");
  }

  // Shard scaling: batched serving at the largest tenant count with one
  // registry per shard, swept over a shards x threads grid. The speedup
  // column is measured against the 1-shard serial run of the same
  // configuration — the thread-scaling numbers EXPERIMENTS.md reports.
  // Results must be bit-identical to the serial run in every cell
  // (sharding changes scheduling, never verdicts or forecasts).
  {
    const size_t tenants = tenant_counts.back();
    std::vector<size_t> shard_counts{1, 2, 4};
    if (only_shards > 0) {
      shard_counts = {only_shards};
    }
    std::vector<int> scale_threads = thread_counts;
    const CellResult serial =
        RunCell(set, tenants, /*threads=*/1, /*batched=*/true, tight_budget,
                rounds, /*shards=*/1);
    Table& scaling = report->AddTable(
        "shard_scaling",
        StrFormat("Sharded fleet scaling (batched, per-shard registries, %zu "
                  "rounds)",
                  rounds),
        {"tenants", "shards", "threads", "ms/run", "req/s",
         "speedup_vs_serial"});
    for (size_t shards : shard_counts) {
      for (int threads : scale_threads) {
        const CellResult cell =
            (shards == 1 && threads == 1)
                ? serial
                : RunCell(set, tenants, threads, /*batched=*/true,
                          tight_budget, rounds, shards,
                          /*per_shard_registries=*/true);
        all_identical =
            all_identical &&
            cell.fleet.mean_under_provision_rate ==
                serial.fleet.mean_under_provision_rate &&
            cell.fleet.mean_utilization == serial.fleet.mean_utilization &&
            cell.fleet.requests_admitted == serial.fleet.requests_admitted;
        scaling.AddRow({Int(tenants), Int(shards), Int(threads),
                        Real(cell.millis), Real(ReqPerSec(cell)),
                        cell.millis > 0.0 ? Real(serial.millis / cell.millis)
                                          : Cell()});
        timed = timed && cell.millis > 0.0 && ReqPerSec(cell) > 0.0;
        ++scaling_rows;
      }
    }
    scaling.Print();
  }
  std::printf("sharded == batched == unbatched results: %s\n",
              all_identical ? "identical" : "MISMATCH");
  report->Check("results_identical", all_identical,
                "sharded == batched == unbatched fleet results");
  report->Check("timings_positive", timed, "ms/run and req/s > 0 in every row");
  report->Check("sections_ran",
                all_warm_rows == 2 && contended_rows > 0 && scaling_rows > 0,
                StrFormat("%zu all-warm, %zu contended and %zu shard-scaling "
                          "rows beside the grid",
                          all_warm_rows, contended_rows, scaling_rows));

  // Export one instrumented run for the artifact pipeline (metrics are
  // global; the timed grid above ran with the same registry sinks).
  std::vector<obs::ScalingDecision> decisions;
  if (!options.metrics_out.empty()) {
    serve::FleetOptions fleet_options;
    fleet_options.num_tenants = tenant_counts.front();
    fleet_options.num_steps = rounds * kReplanEvery;
    fleet_options.history_steps = kServeContext;
    fleet_options.replan_every = kReplanEvery;
    fleet_options.seed = options.seed;
    fleet_options.collect_decisions = true;
    std::unique_ptr<serve::ModelRegistry> registry =
        MakeRegistry(set, tight_budget);
    auto result = serve::RunFleet(registry.get(), set.models, fleet_options);
    RPAS_CHECK(result.ok()) << result.status().ToString();
    decisions = std::move(result->decisions);
  }
  return decisions;
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  int64_t only_tenants = 0;
  int64_t only_threads = 0;
  int64_t rounds = 0;
  int64_t versions = 12;
  int64_t only_shards = 0;
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv,
      "Multi-tenant forecast-serving throughput: batched vs unbatched",
      {{"--tenants=", "run only this tenant count (default grid 8,16,64)", 1,
        100000, &only_tenants},
       {"--threads=", "run only this thread count (default grid 1,2)", 1,
        rpas::kMaxRpasThreads, &only_threads},
       {"--rounds=", "planning rounds per run (default 6; 3 with --quick)", 1,
        100000, &rounds},
       {"--versions=", "registered model versions (default 12)", 1, 10000,
        &versions},
       {"--shards=",
        "run only this shard count in the scaling section (default grid "
        "1,2,4)",
        1, rpas::kMaxRpasThreads, &only_shards}});
  rpas::bench::Report report("fleet_serving", options);
  return report.Finish(rpas::bench::RunFleetServing(
      options, static_cast<size_t>(only_tenants),
      static_cast<int>(only_threads), static_cast<size_t>(rounds),
      static_cast<size_t>(versions), static_cast<size_t>(only_shards),
      &report));
}
