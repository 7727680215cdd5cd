#include "forecast/forecaster.h"

#include <cmath>

#include "common/logging.h"
#include "common/strings.h"

namespace rpas::forecast {

ForecastInput ForecastInput::Window(const ts::TimeSeries& series,
                                   size_t end, size_t context) {
  RPAS_CHECK(context <= end && end <= series.size())
      << "forecast window of " << context << " points ending at " << end
      << " outside a series of " << series.size() << " points";
  ForecastInput input;
  input.context.assign(series.values.begin() + static_cast<long>(end - context),
                       series.values.begin() + static_cast<long>(end));
  input.start_index = end - context;
  input.step_minutes = series.step_minutes;
  return input;
}

Status CheckContext(const char* model, const ForecastInput& input,
                    size_t context_length) {
  if (input.context.size() != context_length) {
    return Status::InvalidArgument(
        StrFormat("%s: context length mismatch", model));
  }
  return CheckContextFinite(model, input);
}

Status CheckContextFinite(const char* model, const ForecastInput& input) {
  for (size_t i = 0; i < input.context.size(); ++i) {
    if (!std::isfinite(input.context[i])) {
      return Status::InvalidArgument(
          StrFormat("%s: context[%zu] is %g; contexts must be finite", model,
                    i, input.context[i]));
    }
  }
  return Status::OK();
}

Result<std::vector<double>> Forecaster::PredictPoint(
    const ForecastInput& input) const {
  RPAS_ASSIGN_OR_RETURN(ts::QuantileForecast fc, Predict(input));
  return fc.Median();
}

Result<ts::QuantileForecast> Forecaster::PredictSeeded(
    const ForecastInput& input, uint64_t /*seed*/) const {
  return Predict(input);
}

Result<std::vector<ts::QuantileForecast>> Forecaster::PredictBatch(
    const std::vector<ForecastInput>& inputs,
    const std::vector<uint64_t>& seeds) const {
  if (inputs.size() != seeds.size()) {
    return Status::InvalidArgument(
        "PredictBatch: inputs and seeds must have equal length");
  }
  std::vector<ts::QuantileForecast> forecasts;
  forecasts.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    RPAS_ASSIGN_OR_RETURN(ts::QuantileForecast fc,
                          PredictSeeded(inputs[i], seeds[i]));
    forecasts.push_back(std::move(fc));
  }
  return forecasts;
}

Status Forecaster::SaveCheckpoint(const std::string& /*path*/) const {
  return Status::Unimplemented(Name() + ": checkpointing not supported");
}

Status Forecaster::LoadCheckpoint(const std::string& /*path*/) {
  return Status::Unimplemented(Name() + ": checkpointing not supported");
}

Status Forecaster::LoadQuantizedCheckpoint(
    std::shared_ptr<const nn::QuantizedCheckpoint> /*checkpoint*/) {
  return Status::Unimplemented(Name() +
                               ": quantized checkpoints not supported");
}

Result<Forecaster::IncrementalUpdateReport> Forecaster::IncrementalUpdate(
    const ts::TimeSeries& /*history*/, size_t /*new_points*/) {
  return Status::Unimplemented(Name() +
                               ": incremental updates not supported");
}

Status Forecaster::ResyncState(const ts::TimeSeries& /*history*/) {
  return Status::OK();
}

std::vector<double> DefaultQuantileLevels() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

std::vector<double> ScalingQuantileLevels() {
  return {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99};
}

Result<RollingForecasts> RollForecasts(const Forecaster& model,
                                       const ts::TimeSeries& history,
                                       const ts::TimeSeries& test,
                                       size_t stride) {
  if (stride == 0) {
    return Status::InvalidArgument("stride must be positive");
  }
  const size_t context = model.ContextLength();
  const size_t horizon = model.Horizon();
  if (history.size() < context) {
    return Status::InvalidArgument(
        "history shorter than the model's context length");
  }
  // Work over the concatenation [history | test]; forecast windows must lie
  // entirely within test so every prediction is scored against held-out
  // data.
  ts::TimeSeries joined = history;
  joined.values.insert(joined.values.end(), test.values.begin(),
                       test.values.end());

  RollingForecasts out;
  const size_t first_target = history.size();
  for (size_t target = first_target; target + horizon <= joined.size();
       target += stride) {
    RPAS_ASSIGN_OR_RETURN(
        ts::QuantileForecast fc,
        model.Predict(ForecastInput::Window(joined, target, context)));
    if (fc.Horizon() != horizon) {
      return Status::Internal("forecaster returned unexpected horizon");
    }
    out.forecasts.push_back(std::move(fc));
    out.actuals.emplace_back(
        joined.values.begin() + static_cast<long>(target),
        joined.values.begin() + static_cast<long>(target + horizon));
    out.forecast_starts.push_back(target);
  }
  if (out.forecasts.empty()) {
    return Status::InvalidArgument(
        "test series shorter than the forecast horizon");
  }
  return out;
}

}  // namespace rpas::forecast
