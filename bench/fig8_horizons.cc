// Reproduces paper Fig. 8: "Forecasting Horizons Evaluation" — mean_wQL of
// each model for prediction lengths of 10 minutes, 1 hour, 2 hours, 6 hours
// and 12 hours (1, 6, 12, 36, 72 steps) at a fixed 12-hour context.
//
// Expected shape (paper): DeepAR and TFT beat ARIMA/MLP at every horizon;
// DeepAR is strongest at very short horizons (it is a one-step model
// applied iteratively) and degrades as iterative errors accumulate, while
// TFT's hyperparameters favour long horizons.
#include <cstdio>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "forecast/forecaster.h"
#include "ts/metrics.h"

namespace rpas::bench {
namespace {

void RunFig8(const BenchOptions& options, Report* report) {
  const std::vector<size_t> horizons = {1, 6, 12, 36, 72};
  const std::vector<std::string> models = {"ARIMA", "MLP", "DeepAR", "TFT"};
  const std::vector<double> levels = AccuracyLevels();

  const Dataset dataset = MakeDataset(trace::AlibabaProfile(), options.seed);

  // Flat horizon x model grid fanned across the thread pool; every cell
  // builds and trains its own model and writes only its own wQL slot, so
  // the table is identical at every RPAS_NUM_THREADS.
  std::vector<double> wql(horizons.size() * models.size(), 0.0);
  RunScenarios(wql.size(), [&](size_t i) {
    const size_t horizon = horizons[i / models.size()];
    const size_t model_index = i % models.size();
    std::unique_ptr<forecast::Forecaster> model;
    switch (model_index) {
      case 0: model = MakeArima(horizon, levels); break;
      case 1: model = MakeMlp(horizon, levels, options.quick, 0); break;
      case 2: model = MakeDeepAr(horizon, levels, options.quick, 0); break;
      default: model = MakeTft(horizon, levels, options.quick, 0); break;
    }
    RPAS_CHECK(model->Fit(dataset.train).ok())
        << models[model_index] << " fit failed at horizon " << horizon;
    // Stride chosen so every horizon scores a comparable number of
    // points without rolling thousands of windows at horizon 1.
    const size_t stride = horizon >= 12 ? horizon : 12;
    auto rolled = forecast::RollForecasts(*model, dataset.train,
                                          dataset.test, stride);
    RPAS_CHECK(rolled.ok()) << rolled.status().ToString();
    wql[i] = ts::EvaluateForecasts(rolled->forecasts, rolled->actuals,
                                   levels)
                 .mean_wql;
    std::printf("[fig8] horizon %zu / %s done\n", horizon,
                models[model_index].c_str());
    std::fflush(stdout);
  });

  Table& table = report->AddTable(
      "wql_by_horizon",
      "Fig. 8: mean_wQL vs prediction horizon (context 72 steps)",
      {"horizon_steps", "ARIMA", "MLP", "DeepAR", "TFT"});
  for (size_t h = 0; h < horizons.size(); ++h) {
    std::vector<Cell> row = {Real(static_cast<double>(horizons[h]), 3)};
    for (size_t m = 0; m < models.size(); ++m) {
      row.push_back(Real(wql[h * models.size() + m]));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv, "Fig. 8: accuracy degradation across forecast horizons");
  rpas::bench::Report report("fig8_horizons", options);
  rpas::bench::RunFig8(options, &report);
  return report.Finish();
}
