// Reproduces paper Table III: "Computation Overhead Breakdown" — the cost
// of one decision round split into its two components:
//   * workload forecasting: DeepAR (ancestral sampling over 100
//     trajectories) vs TFT (direct quantile heads);
//   * auto-scaling optimization: basic fixed-quantile vs adaptive
//     uncertainty-aware allocation (plus, as an ablation called out in
//     DESIGN.md, the same LP solved through the general two-phase simplex
//     instead of the separable closed form).
//
// Expected shape (paper): DeepAR forecasting is an order of magnitude more
// expensive than TFT; the optimization component is milliseconds and the
// basic/adaptive difference is negligible (computing U is cheap).
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/strategies.h"
#include "core/uncertainty.h"
#include "solver/autoscaling.h"

namespace rpas::bench {
namespace {

struct Setup {
  Dataset dataset;
  core::ScalingConfig config;
  forecast::ForecastInput input;
  std::unique_ptr<forecast::Forecaster> deepar;
  std::unique_ptr<forecast::Forecaster> tft;
  ts::QuantileForecast forecast;  // a fixed forecast for the optimizers
};

Setup* g_setup = nullptr;

void BuildSetup(const BenchOptions& options) {
  auto* s = new Setup{MakeDataset(trace::AlibabaProfile(), options.seed),
                      {}, {}, nullptr, nullptr, {}};
  s->config = MakeScalingConfig(s->dataset);
  s->input.start_index = s->dataset.train.size() - kContext;
  s->input.step_minutes = s->dataset.full.step_minutes;
  s->input.context.assign(s->dataset.train.values.end() - kContext,
                          s->dataset.train.values.end());
  s->deepar = MakeDeepAr(kHorizon, ScalingLevels(), /*quick=*/true, 0);
  RPAS_CHECK(s->deepar->Fit(s->dataset.train).ok());
  s->tft = MakeTft(kHorizon, ScalingLevels(), /*quick=*/true, 0);
  RPAS_CHECK(s->tft->Fit(s->dataset.train).ok());
  auto fc = s->tft->Predict(s->input);
  RPAS_CHECK(fc.ok());
  s->forecast = *fc;
  g_setup = s;
}

// ---- Workload forecasting ----

void BM_DeepArForecast(benchmark::State& state) {
  for (auto _ : state) {
    auto fc = g_setup->deepar->Predict(g_setup->input);
    RPAS_CHECK(fc.ok());
    benchmark::DoNotOptimize(&fc);
  }
}
BENCHMARK(BM_DeepArForecast)->Name("Forecast/DeepAR(sampling)")
    ->Unit(benchmark::kMillisecond);

void BM_TftForecast(benchmark::State& state) {
  for (auto _ : state) {
    auto fc = g_setup->tft->Predict(g_setup->input);
    RPAS_CHECK(fc.ok());
    benchmark::DoNotOptimize(&fc);
  }
}
BENCHMARK(BM_TftForecast)->Name("Forecast/TFT(direct)")
    ->Unit(benchmark::kMillisecond);

// ---- Auto-scaling optimization ----

void BM_OptimizeBasic(benchmark::State& state) {
  core::RobustQuantileAllocator allocator(0.9);
  for (auto _ : state) {
    auto alloc = allocator.Allocate(g_setup->forecast, g_setup->config);
    RPAS_CHECK(alloc.ok());
    benchmark::DoNotOptimize(alloc.value().data());
  }
}
BENCHMARK(BM_OptimizeBasic)->Name("Optimize/Basic")
    ->Unit(benchmark::kMillisecond);

void BM_OptimizeAdaptive(benchmark::State& state) {
  core::AdaptiveQuantileAllocator allocator(0.6, 0.9, /*rho=*/1.0);
  for (auto _ : state) {
    auto alloc = allocator.Allocate(g_setup->forecast, g_setup->config);
    RPAS_CHECK(alloc.ok());
    benchmark::DoNotOptimize(alloc.value().data());
  }
}
BENCHMARK(BM_OptimizeAdaptive)->Name("Optimize/Adaptive")
    ->Unit(benchmark::kMillisecond);

void BM_OptimizeSimplex(benchmark::State& state) {
  // Ablation: the same robust program through the general simplex solver
  // (paper: "solved using standard linear programming solvers").
  solver::AutoScalingProblem problem;
  problem.workloads = g_setup->forecast.Trajectory(0.9);
  for (double& w : problem.workloads) {
    w = std::max(w, 0.0);
  }
  problem.thresholds = {g_setup->config.theta};
  problem.min_nodes = g_setup->config.min_nodes;
  for (auto _ : state) {
    auto solution = solver::SolveAutoScalingLp(problem);
    RPAS_CHECK(solution.ok());
    benchmark::DoNotOptimize(solution.value().data());
  }
}
BENCHMARK(BM_OptimizeSimplex)->Name("Optimize/Basic-Simplex(ablation)")
    ->Unit(benchmark::kMillisecond);

void BM_UncertaintyMetric(benchmark::State& state) {
  for (auto _ : state) {
    auto u = core::QuantileUncertaintyPerStep(g_setup->forecast);
    benchmark::DoNotOptimize(u.data());
  }
}
BENCHMARK(BM_UncertaintyMetric)->Name("Optimize/UncertaintyMetric")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv, "Table III: per-stage latency breakdown (Google Benchmark)");
  rpas::bench::Report report("table3_breakdown", options);
  rpas::bench::BuildSetup(options);
  ::benchmark::Initialize(&argc, argv);
  std::printf(
      "Table III: computation overhead breakdown — forecasting vs\n"
      "auto-scaling optimization (real_time column).\n");
  rpas::bench::RunGoogleBenchmarks(
      &report, "breakdown",
      "Table III: computation overhead breakdown, forecasting vs "
      "auto-scaling optimization");
  ::benchmark::Shutdown();
  return report.Finish();
}
