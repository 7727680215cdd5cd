// Ablation bench (DESIGN.md §5/§6) — two design choices the paper argues
// for but does not isolate:
//
//   1. DeepAR observation head: Student-t vs Gaussian. The paper picks
//      Student-t "because it has longer tails ..., allowing it to better
//      handle outliers and noise" (§III-B). We compare both heads on the
//      bursty Google-like trace.
//   2. Quantile recalibration (library extension): wrapping DeepAR so its
//      nominal quantile levels match empirical coverage, and the effect on
//      the robust 0.9-quantile scaling strategy.
//
// Uses reduced training budgets regardless of --quick: ablations compare
// configurations under identical settings, so the absolute budget only
// needs to be large enough for the contrast to show.
#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/evaluator.h"
#include "core/strategies.h"
#include "forecast/deepar.h"
#include "forecast/recalibrated.h"
#include "ts/metrics.h"

namespace rpas::bench {
namespace {

std::unique_ptr<forecast::DeepArForecaster> MakeHeadModel(
    forecast::DeepArForecaster::Head head, std::vector<double> levels) {
  forecast::DeepArForecaster::Options options;
  options.context_length = kContext;
  options.horizon = kHorizon;
  options.hidden_dim = 32;
  options.batch_size = 8;
  options.num_samples = 100;
  options.head = head;
  options.student_t_dof = 3.0;
  options.train.steps = 150;
  options.train.lr = 1e-3;
  options.levels = std::move(levels);
  options.seed = 11;
  return std::make_unique<forecast::DeepArForecaster>(options);
}

void RunAblation(const BenchOptions& options, Report* report) {
  Dataset dataset = MakeDataset(trace::GoogleProfile(), options.seed + 1);
  const std::vector<double> levels = AccuracyLevels();

  // --- Ablation 1: observation head. ---
  Table& heads = report->AddTable(
      "heads",
      "Ablation 1: DeepAR observation head on the bursty Google-like trace",
      {"Head", "mean_wQL", "wQL[0.9]", "Cov[0.9]", "MSE"});
  for (auto [name, head] :
       {std::pair{"Student-t", forecast::DeepArForecaster::Head::kStudentT},
        std::pair{"Gaussian", forecast::DeepArForecaster::Head::kGaussian}}) {
    auto model = MakeHeadModel(head, levels);
    RPAS_CHECK(model->Fit(dataset.train).ok());
    auto rolled = forecast::RollForecasts(*model, dataset.train,
                                          dataset.test, kHorizon);
    RPAS_CHECK(rolled.ok());
    auto accuracy =
        ts::EvaluateForecasts(rolled->forecasts, rolled->actuals, levels);
    heads.AddRow({name, Real(accuracy.mean_wql), Real(accuracy.wql.at(0.9)),
                  Real(accuracy.coverage.at(0.9), 3), Real(accuracy.mse)});
    std::printf("[ablation] head %s done\n", name);
    std::fflush(stdout);
  }
  heads.Print();

  // --- Ablation 2: quantile recalibration. ---
  const core::ScalingConfig config = MakeScalingConfig(dataset);
  const size_t eval_start = dataset.train.size();
  const size_t eval_steps = dataset.test.size();
  const std::vector<double> realized(
      dataset.full.values.begin() + static_cast<long>(eval_start),
      dataset.full.values.end());
  Table& recal = report->AddTable(
      "recalibration",
      "Ablation 2: recalibration effect on coverage and the tau=0.9 robust "
      "strategy",
      {"Model", "Cov[0.9]", "under_rate@0.9-strategy",
       "over_rate@0.9-strategy"});
  auto evaluate = [&](const std::string& name,
                      const forecast::Forecaster& model) {
    auto rolled = forecast::RollForecasts(model, dataset.train, dataset.test,
                                          kHorizon);
    RPAS_CHECK(rolled.ok());
    auto accuracy =
        ts::EvaluateForecasts(rolled->forecasts, rolled->actuals, {0.9});
    core::RobustQuantileAllocator robust(0.9);
    auto alloc = core::RunPredictiveStrategy(model, robust, dataset.full,
                                             eval_start, eval_steps, config);
    RPAS_CHECK(alloc.ok());
    auto prov = core::EvaluateAllocation(realized, *alloc, config);
    recal.AddRow({name, Real(accuracy.coverage.at(0.9), 3),
                  Real(prov.under_provision_rate, 3),
                  Real(prov.over_provision_rate, 3)});
    std::printf("[ablation] %s done\n", name.c_str());
    std::fflush(stdout);
  };

  {
    auto raw = MakeHeadModel(forecast::DeepArForecaster::Head::kStudentT,
                             forecast::ScalingQuantileLevels());
    RPAS_CHECK(raw->Fit(dataset.train).ok());
    evaluate("DeepAR (raw)", *raw);
  }
  {
    forecast::RecalibratedForecaster::Options recal_options;
    recal_options.calibration_steps = 3 * kStepsPerDay;
    recal_options.stride = kHorizon / 2;
    forecast::RecalibratedForecaster wrapped(
        MakeHeadModel(forecast::DeepArForecaster::Head::kStudentT,
                      forecast::ScalingQuantileLevels()),
        recal_options);
    RPAS_CHECK(wrapped.Fit(dataset.train).ok());
    evaluate("DeepAR (recalibrated)", wrapped);
  }
  recal.Print();
  std::printf(
      "\nExpected shape: the Student-t head is better calibrated in the\n"
      "upper tail (Cov[0.9] closer to 0.9, lower wQL[0.9]) on the bursty\n"
      "trace — the paper's rationale for choosing it. Recalibration moves\n"
      "Cov[0.9] toward the nominal 0.9 from either side, aligning the\n"
      "robust strategy's realized risk with its configured tau.\n");
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv, "Robust-allocation ablation under workload perturbations");
  rpas::bench::Report report("ablation_robustness", options);
  rpas::bench::RunAblation(options, &report);
  return report.Finish();
}
