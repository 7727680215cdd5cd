// Reproduces paper Fig. 9: "Under-Provisioning Rate Evaluation" — the
// under-provisioning rate (and, for context, over-provisioning rate) of
// every compared scaler on both traces:
//   reactive:   Reactive-Max, Reactive-Avg (window 6, half-life 6)
//   point:      QB5000, TFT-point, and their padding-enhanced variants
//   robust:     DeepAR-tau and TFT-tau for tau in {0.6, 0.8, 0.9}
//
// Expected shape (paper): predictive beats reactive; quantile-robust beats
// point forecasts (even DeepAR quantiles beat TFT point forecasts); padding
// helps point forecasting but stays behind the robust strategies; higher
// tau monotonically lowers the under-provisioning rate.
#include <cstdio>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/evaluator.h"
#include "core/strategies.h"

namespace rpas::bench {
namespace {

void RunFig9(const BenchOptions& options, Report* report) {
  for (const Dataset& dataset : MakeBothDatasets(options.seed)) {
    const core::ScalingConfig config = MakeScalingConfig(dataset);
    const size_t eval_start = dataset.train.size();
    const size_t eval_steps = dataset.test.size();
    const std::vector<double> realized(
        dataset.full.values.begin() + static_cast<long>(eval_start),
        dataset.full.values.end());

    Table& table = report->AddTable(
        "provisioning_" + dataset.name,
        "Fig. 9 (" + dataset.name + "): under-/over-provisioning per strategy",
        {"Strategy", "under_provision_rate", "over_provision_rate",
         "mean_nodes"});
    auto add = [&](const std::string& name,
                   const Result<std::vector<int>>& alloc) {
      RPAS_CHECK(alloc.ok()) << name << ": " << alloc.status().ToString();
      const auto provision =
          core::EvaluateAllocation(realized, alloc.value(), config);
      table.AddRow({name, Real(provision.under_provision_rate, 3),
                    Real(provision.over_provision_rate, 3),
                    Real(provision.mean_allocated_nodes, 3)});
      std::printf("[fig9] %s / %s done\n", dataset.name.c_str(),
                  name.c_str());
      std::fflush(stdout);
    };

    // --- Reactive scalers ---
    core::ReactiveMaxStrategy reactive_max(6);
    core::ReactiveAvgStrategy reactive_avg(6, 6.0);
    add("Reactive-Max",
        core::RunReactiveStrategy(reactive_max, dataset.full, eval_start,
                                  eval_steps, config));
    add("Reactive-Avg",
        core::RunReactiveStrategy(reactive_avg, dataset.full, eval_start,
                                  eval_steps, config));

    // --- Point-forecast scalers (QB5000 hybrid, TFT-point) + padding ---
    auto qb5000 = MakeQb5000(kHorizon, options.quick, 0);
    RPAS_CHECK(qb5000->Fit(dataset.train).ok());
    core::PointForecastAllocator point;
    add("QB5000",
        core::RunPredictiveStrategy(*qb5000, point, dataset.full, eval_start,
                                    eval_steps, config));
    {
      core::PaddingEnhancement padding(
          core::PaddingEnhancement::Options{.error_window = 72,
                                            .quantile = 0.9});
      add("QB5000-padding",
          core::RunPaddedPointStrategy(*qb5000, &padding, dataset.full,
                                       eval_start, eval_steps, config));
    }

    auto tft_point = MakeTft(kHorizon, {0.5}, options.quick, 0, "TFT-point");
    RPAS_CHECK(tft_point->Fit(dataset.train).ok());
    add("TFT-point",
        core::RunPredictiveStrategy(*tft_point, point, dataset.full,
                                    eval_start, eval_steps, config));
    {
      core::PaddingEnhancement padding(
          core::PaddingEnhancement::Options{.error_window = 72,
                                            .quantile = 0.9});
      add("TFT-point-padding",
          core::RunPaddedPointStrategy(*tft_point, &padding, dataset.full,
                                       eval_start, eval_steps, config));
    }

    // --- Robust quantile scalers ---
    auto deepar = MakeDeepAr(kHorizon, ScalingLevels(), options.quick, 0);
    RPAS_CHECK(deepar->Fit(dataset.train).ok());
    auto tft = MakeTft(kHorizon, ScalingLevels(), options.quick, 0);
    RPAS_CHECK(tft->Fit(dataset.train).ok());
    for (double tau : {0.6, 0.8, 0.9}) {
      core::RobustQuantileAllocator robust(tau);
      add("DeepAR-" + Num(tau, 2),
          core::RunPredictiveStrategy(*deepar, robust, dataset.full,
                                      eval_start, eval_steps, config));
      add("TFT-" + Num(tau, 2),
          core::RunPredictiveStrategy(*tft, robust, dataset.full, eval_start,
                                      eval_steps, config));
    }

    table.Print();
  }
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv, "Fig. 9: under-provisioning rate vs allocation strategy");
  rpas::bench::Report report("fig9_underprovisioning", options);
  rpas::bench::RunFig9(options, &report);
  return report.Finish();
}
