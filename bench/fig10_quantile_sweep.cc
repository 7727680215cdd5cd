// Reproduces paper Fig. 10: "Analysis across Different Quantile Levels" —
// under- and over-provisioning rates when scaling on forecasts at each
// quantile level tau in {0.5 ... 0.99}, for both quantile forecasters.
//
// Expected shape (paper): under-provisioning decreases monotonically in
// tau while over-provisioning increases — the sweep exposes the operating
// point where under-provisioning is mitigated without excessive
// over-provisioning.
#include <cstdio>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/evaluator.h"
#include "core/strategies.h"

namespace rpas::bench {
namespace {

void RunFig10(const BenchOptions& options, Report* report) {
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

  const std::vector<double> taus = {0.5,  0.55, 0.6,  0.65, 0.7, 0.75,
                                    0.8,  0.85, 0.9,  0.95, 0.99};
  for (Entry& entry : entries) {
    RPAS_CHECK(entry.model->Fit(dataset.train).ok());
    Table& table = report->AddTable(
        "sweep_" + entry.name,
        "Fig. 10 (" + entry.name + ", " + dataset.name +
            "): provisioning rates vs quantile level",
        {"tau", "under_provision_rate", "over_provision_rate",
         "mean_nodes"});
    for (double tau : taus) {
      core::RobustQuantileAllocator allocator(tau);
      auto alloc = core::RunPredictiveStrategy(*entry.model, allocator,
                                               dataset.full, eval_start,
                                               eval_steps, config);
      RPAS_CHECK(alloc.ok()) << alloc.status().ToString();
      const auto provision =
          core::EvaluateAllocation(realized, *alloc, config);
      table.AddRow({Real(tau, 3), Real(provision.under_provision_rate, 3),
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
      argc, argv, "Fig. 10: provisioning trade-offs across the quantile grid");
  rpas::bench::Report report("fig10_quantile_sweep", options);
  rpas::bench::RunFig10(options, &report);
  return report.Finish();
}
