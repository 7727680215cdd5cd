// Reproduces paper Table I: "Performance Comparison of Different Models
// with a Context Length of 72 Steps and Prediction Length of 72 Steps" —
// mean_wQL, wQL and Coverage at {0.7, 0.8, 0.9}, and MSE for ARIMA / MLP /
// DeepAR / TFT on the Alibaba-like and Google-like traces, averaged over 3
// training runs (1 with --quick).
//
// Expected shape (paper): TFT best on every metric, DeepAR second, ARIMA
// and MLP an order of magnitude worse, with ARIMA over-covering (coverage
// well above the nominal level) thanks to very wide Gaussian intervals.
#include <cstdio>
#include <functional>
#include <map>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "forecast/forecaster.h"
#include "ts/metrics.h"

namespace rpas::bench {
namespace {

struct ModelSpec {
  std::string name;
  // run index -> freshly built model
  std::function<std::unique_ptr<forecast::Forecaster>(int run)> make;
  bool stochastic = true;  // deterministic models get a single run
};

// One (dataset, model, run) cell of the Table I grid; cells are
// independent, so the scenario runner can evaluate them concurrently.
struct GridCell {
  size_t dataset = 0;
  size_t spec = 0;
  int run = 0;
};

void RunTable1(const BenchOptions& options, Report* report) {
  const int runs = options.quick ? 1 : 3;
  const std::vector<double> levels = AccuracyLevels();
  const std::vector<double> report_levels = {0.7, 0.8, 0.9};

  std::vector<ModelSpec> specs;
  specs.push_back({"ARIMA",
                   [&](int) { return MakeArima(kHorizon, levels); },
                   /*stochastic=*/false});
  specs.push_back({"MLP", [&](int run) {
                     return MakeMlp(kHorizon, levels, options.quick, run);
                   }});
  specs.push_back({"DeepAR", [&](int run) {
                     return MakeDeepAr(kHorizon, levels, options.quick, run);
                   }});
  specs.push_back({"TFT", [&](int run) {
                     return MakeTft(kHorizon, levels, options.quick, run);
                   }});

  const std::vector<Dataset> datasets = MakeBothDatasets(options.seed);
  std::vector<GridCell> cells;
  for (size_t d = 0; d < datasets.size(); ++d) {
    for (size_t s = 0; s < specs.size(); ++s) {
      const int model_runs = specs[s].stochastic ? runs : 1;
      for (int run = 0; run < model_runs; ++run) {
        cells.push_back({d, s, run});
      }
    }
  }

  // Every cell trains a fresh model from its fixed run seed and writes only
  // its own report slot, so the fan-out is deterministic: the aggregation
  // below reads the slots in grid order regardless of RPAS_NUM_THREADS.
  std::vector<ts::AccuracyReport> reports(cells.size());
  RunScenarios(cells.size(), [&](size_t i) {
    const GridCell& cell = cells[i];
    const Dataset& dataset = datasets[cell.dataset];
    const ModelSpec& spec = specs[cell.spec];
    auto model = spec.make(cell.run);
    RPAS_CHECK(model->Fit(dataset.train).ok())
        << spec.name << " fit failed on " << dataset.name;
    auto rolled = forecast::RollForecasts(*model, dataset.train,
                                          dataset.test, kHorizon);
    RPAS_CHECK(rolled.ok()) << rolled.status().ToString();
    reports[i] = ts::EvaluateForecasts(rolled->forecasts, rolled->actuals,
                                       levels);
    std::printf("[table1] %s / %s run %d done\n", dataset.name.c_str(),
                spec.name.c_str(), cell.run);
    std::fflush(stdout);
  });

  Table& table = report->AddTable(
      "accuracy",
      "Table I: forecasting accuracy, context 72 / horizon 72"
      " (averaged over runs)",
      {"Dataset", "Model", "mean_wQL", "wQL[0.7]", "wQL[0.8]", "wQL[0.9]",
       "Cov[0.7]", "Cov[0.8]", "Cov[0.9]", "MSE"});

  size_t cell_index = 0;
  for (const Dataset& dataset : datasets) {
    for (const ModelSpec& spec : specs) {
      const int model_runs = spec.stochastic ? runs : 1;
      double mean_wql = 0.0;
      std::map<double, double> wql{{0.7, 0.0}, {0.8, 0.0}, {0.9, 0.0}};
      std::map<double, double> cov = wql;
      double mse = 0.0;
      for (int run = 0; run < model_runs; ++run) {
        const ts::AccuracyReport& accuracy = reports[cell_index++];
        mean_wql += accuracy.mean_wql;
        for (double tau : report_levels) {
          wql.at(tau) += accuracy.wql.at(tau);
          cov.at(tau) += accuracy.coverage.at(tau);
        }
        mse += accuracy.mse;
      }
      const double inv = 1.0 / static_cast<double>(model_runs);
      table.AddRow({dataset.name, spec.name, Real(mean_wql * inv),
                    Real(wql[0.7] * inv), Real(wql[0.8] * inv),
                    Real(wql[0.9] * inv), Real(cov[0.7] * inv, 3),
                    Real(cov[0.8] * inv, 3), Real(cov[0.9] * inv, 3),
                    Real(mse * inv)});
    }
  }
  table.Print();
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv,
      "Table I: probabilistic forecast accuracy across models and traces");
  rpas::bench::Report report("table1_forecast_accuracy", options);
  rpas::bench::RunTable1(options, &report);
  return report.Finish();
}
