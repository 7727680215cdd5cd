// Reproduces paper Table II: "Computation Overhead Comparison" — the
// end-to-end execution time of one auto-scaling decision round (workload
// forecasting + scaling optimization for a 72-step horizon) per method:
// Reactive-Max, Reactive-Avg, Hybrid (QB5000), DeepAR, TFT.
//
// Expected shape (paper): every method is far below the 10-minute decision
// interval; DeepAR is the most expensive (hundreds of ms — ancestral
// sampling of 100 trajectories), TFT tens of ms (direct quantile heads),
// the hybrid in between, reactive scalers the cheapest.
//
// Implemented with google-benchmark; the reported real_time per iteration
// is the Table II row. Training uses the --quick budget by default here:
// trained-weight values do not affect inference cost.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/evaluator.h"
#include "core/strategies.h"
#include "obs/metrics.h"

namespace rpas::bench {
namespace {

struct Setup {
  Dataset dataset;
  core::ScalingConfig config;
  std::vector<double> recent;          // trailing window for reactive
  forecast::ForecastInput input;       // context for predictive methods
  std::unique_ptr<forecast::Forecaster> qb5000;
  std::unique_ptr<forecast::Forecaster> deepar;
  std::unique_ptr<forecast::Forecaster> tft;
};

Setup* g_setup = nullptr;

void BuildSetup(const BenchOptions& options) {
  auto* s = new Setup{MakeDataset(trace::AlibabaProfile(), options.seed),
                      {},
                      {},
                      {},
                      nullptr,
                      nullptr,
                      nullptr};
  s->config = MakeScalingConfig(s->dataset);
  s->recent.assign(s->dataset.train.values.end() - 6,
                   s->dataset.train.values.end());
  s->input.start_index = s->dataset.train.size() - kContext;
  s->input.step_minutes = s->dataset.full.step_minutes;
  s->input.context.assign(s->dataset.train.values.end() - kContext,
                          s->dataset.train.values.end());
  s->qb5000 = MakeQb5000(kHorizon, /*quick=*/true, 0);
  RPAS_CHECK(s->qb5000->Fit(s->dataset.train).ok());
  s->deepar = MakeDeepAr(kHorizon, ScalingLevels(), /*quick=*/true, 0);
  RPAS_CHECK(s->deepar->Fit(s->dataset.train).ok());
  s->tft = MakeTft(kHorizon, ScalingLevels(), /*quick=*/true, 0);
  RPAS_CHECK(s->tft->Fit(s->dataset.train).ok());
  g_setup = s;
}

void BM_ReactiveMax(benchmark::State& state) {
  core::ReactiveMaxStrategy strategy(6);
  for (auto _ : state) {
    // One decision per horizon step (reactive methods re-decide each step).
    int total = 0;
    for (size_t i = 0; i < kHorizon; ++i) {
      total += strategy.Decide(g_setup->recent, g_setup->config);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ReactiveMax)->Name("Reactive-Max")->Unit(benchmark::kMillisecond);

void BM_ReactiveAvg(benchmark::State& state) {
  core::ReactiveAvgStrategy strategy(6, 6.0);
  for (auto _ : state) {
    int total = 0;
    for (size_t i = 0; i < kHorizon; ++i) {
      total += strategy.Decide(g_setup->recent, g_setup->config);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ReactiveAvg)->Name("Reactive-Average")
    ->Unit(benchmark::kMillisecond);

void PredictiveRound(const forecast::Forecaster& model,
                     const core::QuantileAllocator& allocator,
                     benchmark::State& state) {
  for (auto _ : state) {
    auto fc = model.Predict(g_setup->input);
    RPAS_CHECK(fc.ok());
    auto alloc = allocator.Allocate(*fc, g_setup->config);
    RPAS_CHECK(alloc.ok());
    benchmark::DoNotOptimize(alloc.value().data());
  }
}

void BM_Qb5000(benchmark::State& state) {
  core::PointForecastAllocator allocator;
  PredictiveRound(*g_setup->qb5000, allocator, state);
}
BENCHMARK(BM_Qb5000)->Name("Hybrid(QB5000)")->Unit(benchmark::kMillisecond);

void BM_DeepAr(benchmark::State& state) {
  core::RobustQuantileAllocator allocator(0.9);
  PredictiveRound(*g_setup->deepar, allocator, state);
}
BENCHMARK(BM_DeepAr)->Name("DeepAR")->Unit(benchmark::kMillisecond);

void BM_Tft(benchmark::State& state) {
  core::RobustQuantileAllocator allocator(0.9);
  PredictiveRound(*g_setup->tft, allocator, state);
}
BENCHMARK(BM_Tft)->Name("TFT")->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv,
      "Table II: planning-path overhead microbenchmarks (Google Benchmark)");
  rpas::bench::Report report("table2_overhead", options);
  rpas::bench::BuildSetup(options);
  ::benchmark::Initialize(&argc, argv);
  std::printf(
      "Table II: end-to-end execution time of one auto-scaling decision\n"
      "round per method (real_time column).\n");
  rpas::bench::RunGoogleBenchmarks(
      &report, "decision_round",
      "Table II: end-to-end execution time of one auto-scaling decision "
      "round per method");
  ::benchmark::Shutdown();
  rpas::obs::RecordPoolStats();
  return report.Finish();
}
