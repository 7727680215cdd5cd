#include "forecast/seasonal_naive.h"

#include <cmath>

#include "common/logging.h"
#include "dist/special.h"

namespace rpas::forecast {

SeasonalNaiveForecaster::SeasonalNaiveForecaster(Options options)
    : options_(std::move(options)),
      state_(options_.season) {  // the accumulator checks season > 0
  RPAS_CHECK(options_.context_length > 0 && options_.horizon > 0);
  if (options_.levels.empty()) {
    options_.levels = DefaultQuantileLevels();
  }
}

Status SeasonalNaiveForecaster::Fit(const ts::TimeSeries& train) {
  if (train.size() <= options_.season) {
    return Status::InvalidArgument(
        "SeasonalNaive: training series shorter than one season");
  }
  // Stream the series through the seasonal accumulator: the per-point
  // arithmetic (diff, square, left-to-right sum) matches the former batch
  // loop term by term, so the result is bit-identical — and the same state
  // then serves IncrementalUpdate.
  state_.Reset();
  for (double v : train.values) {
    state_.Push(v);
  }
  residual_stddev_ = state_.Stddev();
  fitted_ = true;
  return Status::OK();
}

Result<Forecaster::IncrementalUpdateReport>
SeasonalNaiveForecaster::IncrementalUpdate(const ts::TimeSeries& history,
                                           size_t new_points) {
  if (!fitted_) {
    return Status::FailedPrecondition("SeasonalNaive: Fit() not called");
  }
  if (new_points > history.size()) {
    return Status::InvalidArgument(
        "SeasonalNaive: new_points exceeds history length");
  }
  for (size_t t = history.size() - new_points; t < history.size(); ++t) {
    state_.Push(history.values[t]);
  }
  if (state_.num_diffs() > 0) {
    residual_stddev_ = state_.Stddev();
  }
  IncrementalUpdateReport report;
  report.points = new_points;
  return report;
}

Status SeasonalNaiveForecaster::ResyncState(const ts::TimeSeries& history) {
  state_.Reset();
  for (double v : history.values) {
    state_.Push(v);
  }
  if (state_.num_diffs() > 0) {
    residual_stddev_ = state_.Stddev();
  }
  return Status::OK();
}

Result<ts::QuantileForecast> SeasonalNaiveForecaster::Predict(
    const ForecastInput& input) const {
  if (!fitted_) {
    return Status::FailedPrecondition("SeasonalNaive: Fit() not called");
  }
  if (input.context.empty()) {
    return Status::InvalidArgument("SeasonalNaive: empty context");
  }
  RPAS_RETURN_IF_ERROR(CheckContextFinite("SeasonalNaive", input));
  const size_t n = input.context.size();
  std::vector<std::vector<double>> values(options_.horizon);
  for (size_t step = 0; step < options_.horizon; ++step) {
    // Index of the same phase one season earlier, counted from the context
    // end; fall back to the last observation when out of range.
    double point = input.context.back();
    const size_t steps_back = options_.season;
    const size_t offset = (step % options_.season);
    if (steps_back <= n && offset < steps_back) {
      const size_t idx = n - steps_back + offset;
      if (idx < n) {
        point = input.context[idx];
      }
    }
    values[step].reserve(options_.levels.size());
    for (double tau : options_.levels) {
      values[step].push_back(point +
                             residual_stddev_ * dist::NormalQuantile(tau));
    }
  }
  return ts::QuantileForecast(options_.levels, std::move(values));
}

}  // namespace rpas::forecast
