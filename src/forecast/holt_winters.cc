#include "forecast/holt_winters.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "dist/special.h"

namespace rpas::forecast {

HoltWintersForecaster::HoltWintersForecaster(Options options)
    : options_(std::move(options)) {
  RPAS_CHECK(options_.context_length > 0 && options_.horizon > 0);
  RPAS_CHECK(options_.season >= 2);
  if (options_.levels.empty()) {
    options_.levels = DefaultQuantileLevels();
  }
}

double HoltWintersForecaster::RunSmoother(const std::vector<double>& values,
                                          double alpha, double beta,
                                          double gamma, double* level_out,
                                          double* trend_out,
                                          std::vector<double>* seasonal_out)
    const {
  const size_t m = options_.season;
  RPAS_CHECK(values.size() >= 2 * m);

  // Initialization: first-season mean as level; season-over-season average
  // change as trend; first-season deviations as seasonal components.
  double level = 0.0;
  for (size_t i = 0; i < m; ++i) {
    level += values[i];
  }
  level /= static_cast<double>(m);
  double second = 0.0;
  for (size_t i = m; i < 2 * m; ++i) {
    second += values[i];
  }
  second /= static_cast<double>(m);
  double trend = (second - level) / static_cast<double>(m);
  std::vector<double> seasonal(m);
  for (size_t i = 0; i < m; ++i) {
    seasonal[i] = values[i] - level;
  }

  double sse = 0.0;
  size_t count = 0;
  for (size_t t = m; t < values.size(); ++t) {
    const size_t s = t % m;
    const double forecast = level + trend + seasonal[s];
    const double error = values[t] - forecast;
    sse += error * error;
    ++count;
    const double prev_level = level;
    level = alpha * (values[t] - seasonal[s]) +
            (1.0 - alpha) * (level + trend);
    trend = beta * (level - prev_level) + (1.0 - beta) * trend;
    seasonal[s] = gamma * (values[t] - level) + (1.0 - gamma) * seasonal[s];
  }
  if (level_out != nullptr) {
    *level_out = level;
  }
  if (trend_out != nullptr) {
    *trend_out = trend;
  }
  if (seasonal_out != nullptr) {
    *seasonal_out = std::move(seasonal);
  }
  return count > 0 ? sse / static_cast<double>(count) : 0.0;
}

Status HoltWintersForecaster::Fit(const ts::TimeSeries& train) {
  if (train.size() < 2 * options_.season + options_.horizon) {
    return Status::InvalidArgument(
        "HoltWinters: training series shorter than two seasons");
  }
  double best_mse = std::numeric_limits<double>::infinity();
  for (double alpha : options_.alpha_grid) {
    for (double beta : options_.beta_grid) {
      for (double gamma : options_.gamma_grid) {
        const double mse = RunSmoother(train.values, alpha, beta, gamma,
                                       nullptr, nullptr, nullptr);
        if (mse < best_mse) {
          best_mse = mse;
          alpha_ = alpha;
          beta_ = beta;
          gamma_ = gamma;
        }
      }
    }
  }
  residual_stddev_ = std::max(std::sqrt(best_mse), 1e-9);
  fitted_ = true;
  return Status::OK();
}

Result<ts::QuantileForecast> HoltWintersForecaster::Predict(
    const ForecastInput& input) const {
  if (!fitted_) {
    return Status::FailedPrecondition("HoltWinters: Fit() not called");
  }
  if (input.context.size() < 2 * options_.season) {
    return Status::InvalidArgument(
        "HoltWinters: context must cover at least two seasons");
  }
  RPAS_RETURN_IF_ERROR(CheckContextFinite("HoltWinters", input));
  double level = 0.0;
  double trend = 0.0;
  std::vector<double> seasonal;
  RunSmoother(input.context, alpha_, beta_, gamma_, &level, &trend,
              &seasonal);

  const size_t m = options_.season;
  const size_t n = input.context.size();
  std::vector<std::vector<double>> values(options_.horizon);
  for (size_t h = 0; h < options_.horizon; ++h) {
    const size_t s = (n + h) % m;
    const double mean =
        level + static_cast<double>(h + 1) * trend + seasonal[s];
    const double stddev =
        residual_stddev_ *
        std::sqrt(1.0 + static_cast<double>(h) * alpha_ * alpha_);
    values[h].reserve(options_.levels.size());
    for (double tau : options_.levels) {
      values[h].push_back(mean + stddev * dist::NormalQuantile(tau));
    }
  }
  return ts::QuantileForecast(options_.levels, std::move(values));
}

}  // namespace rpas::forecast
