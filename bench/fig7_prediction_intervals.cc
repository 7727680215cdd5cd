// Reproduces paper Fig. 7: "Prediction Results" — one sampled 72-step
// forecasting horizon for MLP, DeepAR and TFT, printing the mean forecast,
// the 80% interval (0.1–0.9 quantiles) and the 30%/60% inner intervals
// together with the realized workload, plus the interval-quality summary
// (empirical coverage and mean width) that the figure conveys visually:
// DeepAR and TFT keep good coverage with much narrower intervals than MLP.
#include <cstdio>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "forecast/forecaster.h"

namespace rpas::bench {
namespace {

struct IntervalSummary {
  double coverage80 = 0.0;
  double mean_width80 = 0.0;
};

IntervalSummary Summarize(const ts::QuantileForecast& fc,
                          const std::vector<double>& actual) {
  IntervalSummary s;
  size_t covered = 0;
  double width = 0.0;
  for (size_t h = 0; h < fc.Horizon(); ++h) {
    const double lo = fc.Value(h, 0.1);
    const double hi = fc.Value(h, 0.9);
    if (actual[h] >= lo && actual[h] <= hi) {
      ++covered;
    }
    width += hi - lo;
  }
  s.coverage80 =
      static_cast<double>(covered) / static_cast<double>(fc.Horizon());
  s.mean_width80 = width / static_cast<double>(fc.Horizon());
  return s;
}

void RunFig7(const BenchOptions& options, Report* report) {
  Dataset dataset = MakeDataset(trace::AlibabaProfile(), options.seed);

  struct Entry {
    std::string name;
    std::unique_ptr<forecast::Forecaster> model;
  };
  std::vector<Entry> entries;
  entries.push_back(
      {"MLP", MakeMlp(kHorizon, AccuracyLevels(), options.quick, 0)});
  entries.push_back(
      {"DeepAR", MakeDeepAr(kHorizon, AccuracyLevels(), options.quick, 0)});
  entries.push_back(
      {"TFT", MakeTft(kHorizon, AccuracyLevels(), options.quick, 0)});

  // One sampled horizon: the first test window.
  const forecast::ForecastInput input = forecast::ForecastInput::Window(
      dataset.train, dataset.train.size(), kContext);
  std::vector<double> actual(dataset.test.values.begin(),
                             dataset.test.values.begin() + kHorizon);

  Table& summary = report->AddTable(
      "summary", "Fig. 7 summary: 80% interval coverage and width",
      {"Model", "coverage80", "mean_width80"});
  for (Entry& entry : entries) {
    RPAS_CHECK(entry.model->Fit(dataset.train).ok());
    auto fc = entry.model->Predict(input);
    RPAS_CHECK(fc.ok()) << fc.status().ToString();

    Table& series = report->AddTable(
        "horizon_" + entry.name,
        "Fig. 7 (" + entry.name +
            "): sampled 72-step horizon with prediction intervals",
        {"step", "actual", "mean", "q0.1", "q0.35", "q0.65", "q0.9"});
    for (size_t h = 0; h < kHorizon; h += options.quick ? 12 : 6) {
      series.AddRow({Real(static_cast<double>(h), 3), Real(actual[h]),
                     Real(fc->Value(h, 0.5)), Real(fc->Value(h, 0.1)),
                     Real(fc->Value(h, 0.35)), Real(fc->Value(h, 0.65)),
                     Real(fc->Value(h, 0.9))});
    }
    series.Print();
    const IntervalSummary s = Summarize(*fc, actual);
    summary.AddRow({entry.name, Real(s.coverage80, 3), Real(s.mean_width80)});
  }
  summary.Print();
  std::printf(
      "\nExpected shape (paper): DeepAR and TFT maintain high coverage\n"
      "within much narrower intervals than MLP.\n");
}

}  // namespace
}  // namespace rpas::bench

int main(int argc, char** argv) {
  const rpas::bench::BenchOptions options = rpas::bench::ParseArgs(
      argc, argv, "Fig. 7: prediction-interval visualization data");
  rpas::bench::Report report("fig7_prediction_intervals", options);
  rpas::bench::RunFig7(options, &report);
  return report.Finish();
}
