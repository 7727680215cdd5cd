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
//
// Each row is timed with bench::TimeCalls; real_ms is the mean per call
// over the final timed block.
#include <algorithm>
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

Setup BuildSetup(const BenchOptions& options) {
  Setup s;
  s.dataset = MakeDataset(trace::AlibabaProfile(), options.seed);
  s.config = MakeScalingConfig(s.dataset);
  s.input = forecast::ForecastInput::Window(s.dataset.train,
                                            s.dataset.train.size(), kContext);
  s.deepar = MakeDeepAr(kHorizon, ScalingLevels(), /*quick=*/true, 0);
  RPAS_CHECK(s.deepar->Fit(s.dataset.train).ok());
  s.tft = MakeTft(kHorizon, ScalingLevels(), /*quick=*/true, 0);
  RPAS_CHECK(s.tft->Fit(s.dataset.train).ok());
  auto fc = s.tft->Predict(s.input);
  RPAS_CHECK(fc.ok());
  s.forecast = *fc;
  return s;
}

void Forecast(const forecast::Forecaster& model, const Setup& s) {
  auto fc = model.Predict(s.input);
  RPAS_CHECK(fc.ok());
  KeepObservable(*fc);
}

void Optimize(const core::QuantileAllocator& allocator, const Setup& s) {
  auto alloc = allocator.Allocate(s.forecast, s.config);
  RPAS_CHECK(alloc.ok());
  KeepObservable(*alloc);
}

void Run(const BenchOptions& options, Report* report) {
  const Setup s = BuildSetup(options);
  const core::RobustQuantileAllocator basic(0.9);
  const core::AdaptiveQuantileAllocator adaptive(0.6, 0.9, /*rho=*/1.0);
  // Ablation: the same robust program through the general simplex solver
  // (paper: "solved using standard linear programming solvers").
  solver::AutoScalingProblem problem;
  problem.workloads = s.forecast.Trajectory(0.9);
  for (double& w : problem.workloads) {
    w = std::max(w, 0.0);
  }
  problem.thresholds = {s.config.theta};
  problem.min_nodes = s.config.min_nodes;

  TimeCalls(
      report, options.quick, "breakdown",
      "Table III: computation overhead breakdown, forecasting vs "
      "auto-scaling optimization",
      {{"Forecast/DeepAR(sampling)", [&] { Forecast(*s.deepar, s); }},
       {"Forecast/TFT(direct)", [&] { Forecast(*s.tft, s); }},
       {"Optimize/Basic", [&] { Optimize(basic, s); }},
       {"Optimize/Adaptive", [&] { Optimize(adaptive, s); }},
       {"Optimize/Basic-Simplex(ablation)",
        [&] {
          auto solution = solver::SolveAutoScalingLp(problem);
          RPAS_CHECK(solution.ok());
          KeepObservable(*solution);
        }},
       {"Optimize/UncertaintyMetric", [&] {
          KeepObservable(core::QuantileUncertaintyPerStep(s.forecast));
        }}});
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv, "Table III: forecasting vs optimization latency per call");
  rpas::bench::Report report("table3_breakdown", options);
  rpas::bench::Run(options, &report);
  return report.Finish();
}
