// Reproduces paper Fig. 11: "Evaluation of Adaptive Approach" — heatmaps of
// under- and over-provisioning rates for every combination (tau1, tau2),
// tau1 < tau2, of two optional quantile levels driving the
// uncertainty-aware adaptive strategy (Algorithm 1), for both DeepAR and
// TFT. Diagonal entries are the basic fixed-quantile strategy.
//
// Expected shape (paper): relative to the conservative fixed level
// (tau2, tau2), the adaptive combination (tau1, tau2) reduces
// over-provisioning without increasing under-provisioning.
//
// The uncertainty threshold rho is calibrated per model as the median
// per-step U observed on a calibration slice of the training data (the
// paper selects rho from historical data, §III-C2).
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/evaluator.h"
#include "core/strategies.h"
#include "core/uncertainty.h"

namespace rpas::bench {
namespace {

/// Median per-step uncertainty over forecasts rolled on the tail of the
/// training series (historical calibration of rho, paper §III-C2).
double CalibrateRho(const forecast::Forecaster& model,
                    const Dataset& dataset) {
  const size_t calib_steps = 2 * kStepsPerDay;
  ts::TimeSeries head = dataset.train.Slice(
      0, dataset.train.size() - calib_steps);
  ts::TimeSeries calib = dataset.train.Slice(
      dataset.train.size() - calib_steps, dataset.train.size());
  auto rolled = forecast::RollForecasts(model, head, calib, kHorizon);
  RPAS_CHECK(rolled.ok()) << rolled.status().ToString();
  std::vector<double> all_u;
  for (const auto& fc : rolled->forecasts) {
    const auto u = core::QuantileUncertaintyPerStep(fc);
    all_u.insert(all_u.end(), u.begin(), u.end());
  }
  std::sort(all_u.begin(), all_u.end());
  return all_u[all_u.size() / 2];
}

void RunFig11(const BenchOptions& options, Report* report) {
  Dataset dataset = MakeDataset(trace::AlibabaProfile(), options.seed);
  const core::ScalingConfig config = MakeScalingConfig(dataset);
  const size_t eval_start = dataset.train.size();
  const size_t eval_steps = dataset.test.size();
  const std::vector<double> realized(
      dataset.full.values.begin() + static_cast<long>(eval_start),
      dataset.full.values.end());

  struct Entry {
    std::string name;
    std::unique_ptr<forecast::Forecaster> model;
  };
  std::vector<Entry> entries;
  entries.push_back(
      {"DeepAR", MakeDeepAr(kHorizon, ScalingLevels(), options.quick, 0)});
  entries.push_back(
      {"TFT", MakeTft(kHorizon, ScalingLevels(), options.quick, 0)});

  const std::vector<double> levels = ScalingLevels();
  for (Entry& entry : entries) {
    RPAS_CHECK(entry.model->Fit(dataset.train).ok());
    const double rho = CalibrateRho(*entry.model, dataset);
    std::printf("[fig11] %s calibrated rho = %s\n", entry.name.c_str(),
                Num(rho).c_str());

    const std::vector<std::string> columns = {
        "tau1\\tau2", "0.5", "0.6", "0.7", "0.8", "0.9", "0.95", "0.99"};
    Table& under = report->AddTable(
        "under_" + entry.name,
        "Fig. 11 (" + entry.name +
            "): UNDER-provisioning rate per (tau1, tau2); diagonal = fixed "
            "quantile",
        columns);
    Table& over = report->AddTable(
        "over_" + entry.name,
        "Fig. 11 (" + entry.name +
            "): OVER-provisioning rate per (tau1, tau2); diagonal = fixed "
            "quantile",
        columns);
    for (double tau1 : levels) {
      std::vector<Cell> under_row = {Real(tau1, 3)};
      std::vector<Cell> over_row = {Real(tau1, 3)};
      for (double tau2 : levels) {
        if (tau2 < tau1) {
          under_row.emplace_back();
          over_row.emplace_back();
          continue;
        }
        Result<std::vector<int>> alloc = [&]() {
          if (tau1 == tau2) {
            core::RobustQuantileAllocator fixed(tau1);
            return core::RunPredictiveStrategy(*entry.model, fixed,
                                               dataset.full, eval_start,
                                               eval_steps, config);
          }
          core::AdaptiveQuantileAllocator adaptive(tau1, tau2, rho);
          return core::RunPredictiveStrategy(*entry.model, adaptive,
                                             dataset.full, eval_start,
                                             eval_steps, config);
        }();
        RPAS_CHECK(alloc.ok()) << alloc.status().ToString();
        const auto provision =
            core::EvaluateAllocation(realized, *alloc, config);
        under_row.push_back(Real(provision.under_provision_rate, 3));
        over_row.push_back(Real(provision.over_provision_rate, 3));
      }
      under.AddRow(std::move(under_row));
      over.AddRow(std::move(over_row));
    }
    under.Print();
    over.Print();
  }
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv, "Fig. 11: adaptive allocator level/threshold heatmap");
  rpas::bench::Report report("fig11_adaptive_heatmap", options);
  rpas::bench::RunFig11(options, &report);
  return report.Finish();
}
