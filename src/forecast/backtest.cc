#include "forecast/backtest.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"

namespace rpas::forecast {

namespace {

MetricSummary Summarize(const std::vector<double>& values) {
  MetricSummary s;
  if (values.empty()) {
    return s;
  }
  for (double v : values) {
    s.mean += v;
  }
  s.mean /= static_cast<double>(values.size());
  if (values.size() > 1) {
    double ss = 0.0;
    for (double v : values) {
      ss += (v - s.mean) * (v - s.mean);
    }
    s.stddev = std::sqrt(ss / static_cast<double>(values.size() - 1));
  }
  return s;
}

}  // namespace

Result<BacktestResult> Backtest(const SeededForecasterFactory& factory,
                                const ts::TimeSeries& series,
                                const BacktestOptions& options) {
  if (options.folds == 0 || options.fold_steps == 0) {
    return Status::InvalidArgument("backtest needs folds and fold_steps");
  }
  const size_t total_eval = options.folds * options.fold_steps;
  if (series.size() <= total_eval) {
    return Status::InvalidArgument(
        "series too short for the requested folds");
  }

  // Every fold writes only its own slot; aggregation below walks the slots
  // in fold order, so the parallel schedule reproduces the serial one.
  std::vector<Status> statuses(options.folds, Status());
  std::vector<ts::AccuracyReport> reports(options.folds);

  // Handles resolved once; per-fold updates are relaxed atomics. The fold
  // count is a pure function of the options, so it is deterministic; the
  // wall-clock timing histogram is not.
  obs::MetricsRegistry* metrics = obs::ResolveRegistry(options.metrics);
  obs::Counter* folds_counter = metrics->GetCounter("backtest.folds");
  obs::Histogram* fold_ms = metrics->GetHistogram(
      "backtest.fold_ms", /*bounds=*/{}, /*deterministic=*/false);
  obs::TraceBuffer* trace = obs::ResolveTrace(options.trace);
  obs::Span run_span(trace, "backtest",
                     static_cast<int64_t>(options.folds));

  auto fold_body = [&](size_t fold) {
    // Expanding origin: fold 0 evaluates the oldest evaluation block.
    const size_t origin =
        series.size() - (options.folds - fold) * options.fold_steps;
    ts::TimeSeries train = series.Slice(0, origin);
    ts::TimeSeries eval =
        series.Slice(origin, origin + options.fold_steps);

    std::unique_ptr<Forecaster> model =
        factory(fold, DeriveSeed(options.base_seed, fold));
    if (model == nullptr) {
      statuses[fold] = Status::InvalidArgument(
          "backtest factory returned null");
      return;
    }
    Status fit = model->Fit(train);
    if (!fit.ok()) {
      statuses[fold] = std::move(fit);
      return;
    }
    const size_t stride =
        options.stride > 0 ? options.stride : model->Horizon();
    Result<RollingForecasts> rolled =
        RollForecasts(*model, train, eval, stride);
    if (!rolled.ok()) {
      statuses[fold] = rolled.status();
      return;
    }
    const std::vector<double> levels =
        options.levels.empty() ? model->Levels() : options.levels;
    reports[fold] =
        ts::EvaluateForecasts(rolled->forecasts, rolled->actuals, levels);
  };

  auto run_fold = [&](size_t fold) {
    obs::Span fold_span(trace, "backtest.fold", static_cast<int64_t>(fold));
    Stopwatch watch;
    fold_body(fold);
    folds_counter->Increment();
    fold_ms->Observe(watch.ElapsedMillis());
  };

  ParallelFor(0, options.folds, 1, [&](size_t begin, size_t end) {
    for (size_t fold = begin; fold < end; ++fold) {
      run_fold(fold);
    }
  });

  for (size_t fold = 0; fold < options.folds; ++fold) {
    if (!statuses[fold].ok()) {
      return statuses[fold];
    }
  }

  BacktestResult result;
  std::vector<double> wqls;
  std::vector<double> mses;
  std::vector<double> maes;
  std::map<double, std::vector<double>> coverages;
  for (ts::AccuracyReport& report : reports) {
    wqls.push_back(report.mean_wql);
    mses.push_back(report.mse);
    maes.push_back(report.mae);
    for (const auto& [tau, cov] : report.coverage) {
      coverages[tau].push_back(cov);
    }
    result.fold_reports.push_back(std::move(report));
  }

  result.mean_wql = Summarize(wqls);
  result.mse = Summarize(mses);
  result.mae = Summarize(maes);
  for (const auto& [tau, values] : coverages) {
    result.coverage[tau] = Summarize(values);
  }
  return result;
}

Result<BacktestResult> Backtest(
    const std::function<std::unique_ptr<Forecaster>()>& factory,
    const ts::TimeSeries& series, const BacktestOptions& options) {
  return Backtest(
      [&factory](size_t, uint64_t) { return factory(); }, series, options);
}

}  // namespace rpas::forecast
