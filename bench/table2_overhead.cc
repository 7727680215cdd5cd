// Reproduces paper Table II: "Computation Overhead Comparison" — the
// end-to-end execution time of one auto-scaling decision round (workload
// forecasting + scaling optimization for a 72-step horizon) per method:
// Reactive-Max, Reactive-Avg, Hybrid (QB5000), DeepAR, TFT.
//
// Expected shape (paper): every method is far below the 10-minute decision
// interval; DeepAR is the most expensive (ancestral sampling of 100
// trajectories), TFT much cheaper (direct quantile heads), reactive
// scalers the cheapest.
//
// Each row is timed with bench::TimeCalls; real_ms is the mean per
// decision round over the final timed block. Training uses the --quick
// budget in both modes: trained-weight values do not affect inference
// cost.
#include <memory>

#include "bench/bench_common.h"
#include "common/logging.h"
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

Setup BuildSetup(const BenchOptions& options) {
  Setup s;
  s.dataset = MakeDataset(trace::AlibabaProfile(), options.seed);
  s.config = MakeScalingConfig(s.dataset);
  s.recent.assign(s.dataset.train.values.end() - 6,
                  s.dataset.train.values.end());
  s.input = forecast::ForecastInput::Window(s.dataset.train,
                                            s.dataset.train.size(), kContext);
  s.qb5000 = MakeQb5000(kHorizon, /*quick=*/true, 0);
  RPAS_CHECK(s.qb5000->Fit(s.dataset.train).ok());
  s.deepar = MakeDeepAr(kHorizon, ScalingLevels(), /*quick=*/true, 0);
  RPAS_CHECK(s.deepar->Fit(s.dataset.train).ok());
  s.tft = MakeTft(kHorizon, ScalingLevels(), /*quick=*/true, 0);
  RPAS_CHECK(s.tft->Fit(s.dataset.train).ok());
  return s;
}

/// One reactive decision per horizon step (reactive methods re-decide
/// each step).
void ReactiveRound(const core::ReactiveStrategy& strategy, const Setup& s) {
  int total = 0;
  for (size_t i = 0; i < kHorizon; ++i) {
    total += strategy.Decide(s.recent, s.config);
  }
  KeepObservable(total);
}

/// One forecast for the horizon, then its allocation.
void PredictiveRound(const forecast::Forecaster& model,
                     const core::QuantileAllocator& allocator,
                     const Setup& s) {
  auto fc = model.Predict(s.input);
  RPAS_CHECK(fc.ok());
  auto alloc = allocator.Allocate(*fc, s.config);
  RPAS_CHECK(alloc.ok());
  KeepObservable(*alloc);
}

void Run(const BenchOptions& options, Report* report) {
  const Setup s = BuildSetup(options);
  const core::ReactiveMaxStrategy reactive_max(6);
  const core::ReactiveAvgStrategy reactive_avg(6, 6.0);
  const core::PointForecastAllocator point;
  const core::RobustQuantileAllocator robust(0.9);

  TimeCalls(report, options.quick, "decision_round",
            "Table II: end-to-end execution time of one auto-scaling "
            "decision round per method",
            {{"Reactive-Max", [&] { ReactiveRound(reactive_max, s); }},
             {"Reactive-Average", [&] { ReactiveRound(reactive_avg, s); }},
             {"Hybrid(QB5000)", [&] { PredictiveRound(*s.qb5000, point, s); }},
             {"DeepAR", [&] { PredictiveRound(*s.deepar, robust, s); }},
             {"TFT", [&] { PredictiveRound(*s.tft, robust, s); }}});
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv, "Table II: one decision round's latency per method");
  rpas::bench::Report report("table2_overhead", options);
  rpas::bench::Run(options, &report);
  rpas::obs::RecordPoolStats();
  return report.Finish();
}
