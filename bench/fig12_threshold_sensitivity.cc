// Reproduces paper Fig. 12: "Sensitivity Analysis of Uncertainty
// Threshold" — under-/over-provisioning rates of the adaptive strategy as
// the uncertainty threshold rho sweeps the observed range of U, on the
// Google-like trace, for selected (tau1, tau2) combinations.
//
// Expected shape (paper): moving rho from "always conservative" (rho below
// every U) to "always optimistic" (rho above every U) trades
// under-provisioning for over-provisioning in distinct step-like changes —
// ranges of rho with identical effect, because only the thresholds that
// cross observed U values change any decision.
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/evaluator.h"
#include "core/strategies.h"
#include "core/uncertainty.h"

namespace rpas::bench {
namespace {

void RunFig12(const BenchOptions& options, Report* report) {
  Dataset dataset = MakeDataset(trace::GoogleProfile(), options.seed + 1);
  const core::ScalingConfig config = MakeScalingConfig(dataset);
  const size_t eval_start = dataset.train.size();
  const size_t eval_steps = dataset.test.size();
  const std::vector<double> realized(
      dataset.full.values.begin() + static_cast<long>(eval_start),
      dataset.full.values.end());

  auto model = MakeTft(kHorizon, ScalingLevels(), options.quick, 0);
  RPAS_CHECK(model->Fit(dataset.train).ok());

  // Observed range of U on a calibration slice drives the sweep grid.
  std::vector<double> all_u;
  {
    const size_t calib_steps = 2 * kStepsPerDay;
    ts::TimeSeries head =
        dataset.train.Slice(0, dataset.train.size() - calib_steps);
    ts::TimeSeries calib = dataset.train.Slice(
        dataset.train.size() - calib_steps, dataset.train.size());
    auto rolled = forecast::RollForecasts(*model, head, calib, kHorizon);
    RPAS_CHECK(rolled.ok());
    for (const auto& fc : rolled->forecasts) {
      const auto u = core::QuantileUncertaintyPerStep(fc);
      all_u.insert(all_u.end(), u.begin(), u.end());
    }
    std::sort(all_u.begin(), all_u.end());
  }
  auto u_quantile = [&](double p) {
    return all_u[static_cast<size_t>(
        p * static_cast<double>(all_u.size() - 1))];
  };

  const std::vector<std::pair<double, double>> combos = {
      {0.6, 0.9}, {0.7, 0.95}, {0.8, 0.99}};
  for (const auto& [tau1, tau2] : combos) {
    Table& table = report->AddTable(
        "rho_sweep_" + Num(tau1, 3) + "_" + Num(tau2, 3),
        "Fig. 12 (TFT, " + dataset.name + "): sensitivity to rho, tau1=" +
            Num(tau1, 3) + " tau2=" + Num(tau2, 3),
        {"rho (U-percentile)", "rho", "under_provision_rate",
         "over_provision_rate", "mean_nodes"});
    for (double p : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      // Sweep slightly past both ends so the all-conservative and
      // all-optimistic extremes are included.
      const double rho = p == 0.0   ? u_quantile(0.0) - 1.0
                         : p == 1.0 ? u_quantile(1.0) + 1.0
                                    : u_quantile(p);
      core::AdaptiveQuantileAllocator adaptive(tau1, tau2, rho);
      auto alloc = core::RunPredictiveStrategy(*model, adaptive,
                                               dataset.full, eval_start,
                                               eval_steps, config);
      RPAS_CHECK(alloc.ok()) << alloc.status().ToString();
      const auto provision =
          core::EvaluateAllocation(realized, *alloc, config);
      table.AddRow({Real(p, 3), Real(rho),
                    Real(provision.under_provision_rate, 3),
                    Real(provision.over_provision_rate, 3),
                    Real(provision.mean_allocated_nodes, 3)});
    }
    table.Print();
  }
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv,
      "Fig. 12: uncertainty-threshold sensitivity of the scaling loop");
  rpas::bench::Report report("fig12_threshold_sensitivity", options);
  rpas::bench::RunFig12(options, &report);
  return report.Finish();
}
