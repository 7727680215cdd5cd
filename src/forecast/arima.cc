#include "forecast/arima.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "dist/special.h"
#include "tensor/ops.h"

namespace rpas::forecast {

namespace {

/// One differencing pass at the given lag: y_t = x_t - x_{t-lag}.
std::vector<double> DifferenceAtLag(const std::vector<double>& x,
                                    size_t lag) {
  RPAS_CHECK(x.size() > lag);
  std::vector<double> out;
  out.reserve(x.size() - lag);
  for (size_t i = lag; i < x.size(); ++i) {
    out.push_back(x[i] - x[i - lag]);
  }
  return out;
}

/// Computes residuals of an ARMA(p, q) model over `x` (residuals for the
/// first max(p, q) points are 0).
std::vector<double> ArmaResiduals(const std::vector<double>& x,
                                  const std::vector<double>& phi,
                                  const std::vector<double>& theta,
                                  double intercept) {
  const size_t p = phi.size();
  const size_t q = theta.size();
  std::vector<double> e(x.size(), 0.0);
  const size_t warmup = std::max(p, q);
  for (size_t t = warmup; t < x.size(); ++t) {
    double pred = intercept;
    for (size_t i = 0; i < p; ++i) {
      pred += phi[i] * x[t - 1 - i];
    }
    for (size_t j = 0; j < q; ++j) {
      pred += theta[j] * e[t - 1 - j];
    }
    e[t] = x[t] - pred;
  }
  return e;
}

/// Multiplies polynomial `a` (coefficient of B^i at a[i]) by (1 - B^lag).
std::vector<double> MultiplyByOneMinusBLag(const std::vector<double>& a,
                                           size_t lag) {
  std::vector<double> out(a.size() + lag, 0.0);
  for (size_t i = 0; i < a.size(); ++i) {
    out[i] += a[i];
    out[i + lag] -= a[i];
  }
  return out;
}

}  // namespace

ArimaForecaster::ArimaForecaster(Options options)
    : options_(std::move(options)) {
  RPAS_CHECK(options_.p >= 0 && options_.q >= 0);
  RPAS_CHECK(options_.d == 0 || options_.d == 1)
      << "only d in {0, 1} supported";
  RPAS_CHECK(options_.seasonal_d == 0 || options_.seasonal_d == 1)
      << "only seasonal D in {0, 1} supported";
  RPAS_CHECK(options_.season >= 2);
  RPAS_CHECK(options_.horizon > 0 && options_.context_length > 0);
  if (options_.levels.empty()) {
    options_.levels = DefaultQuantileLevels();
  }
}

std::vector<size_t> ArimaForecaster::DifferenceLags() const {
  std::vector<size_t> lags;
  // Seasonal differencing first, then regular.
  for (int i = 0; i < options_.seasonal_d; ++i) {
    lags.push_back(options_.season);
  }
  for (int i = 0; i < options_.d; ++i) {
    lags.push_back(1);
  }
  return lags;
}

Status ArimaForecaster::Fit(const ts::TimeSeries& train) {
  const int p = options_.p;
  const int q = options_.q;
  std::vector<double> x = train.values;
  for (size_t lag : DifferenceLags()) {
    if (x.size() <= lag) {
      return Status::InvalidArgument(
          "ARIMA: training series too short for differencing");
    }
    x = DifferenceAtLag(x, lag);
  }
  const int long_ar = std::max(20, p + q + 10);
  if (static_cast<int>(x.size()) < long_ar + p + q + 10) {
    return Status::InvalidArgument(
        "ARIMA: training series too short for Hannan-Rissanen estimation");
  }

  // Stage 1: long autoregression by least squares -> provisional residuals.
  {
    const size_t n = x.size() - static_cast<size_t>(long_ar);
    tensor::Matrix a(n, static_cast<size_t>(long_ar) + 1);
    tensor::Matrix b(n, 1);
    for (size_t t = 0; t < n; ++t) {
      a(t, 0) = 1.0;
      for (int i = 0; i < long_ar; ++i) {
        a(t, static_cast<size_t>(i) + 1) = x[t + long_ar - 1 - i];
      }
      b(t, 0) = x[t + long_ar];
    }
    RPAS_ASSIGN_OR_RETURN(tensor::Matrix coeffs,
                          tensor::SolveLeastSquares(a, b, options_.ridge));
    // Provisional residuals from the long AR.
    std::vector<double> e(x.size(), 0.0);
    for (size_t t = static_cast<size_t>(long_ar); t < x.size(); ++t) {
      double pred = coeffs(0, 0);
      for (int i = 0; i < long_ar; ++i) {
        pred += coeffs(static_cast<size_t>(i) + 1, 0) * x[t - 1 - i];
      }
      e[t] = x[t] - pred;
    }

    // Stage 2: regress x_t on p lags of x and q lags of e.
    const size_t start = static_cast<size_t>(long_ar) +
                         static_cast<size_t>(std::max(p, q));
    const size_t m = x.size() - start;
    const size_t cols = 1 + static_cast<size_t>(p) + static_cast<size_t>(q);
    tensor::Matrix a2(m, cols);
    tensor::Matrix b2(m, 1);
    for (size_t r = 0; r < m; ++r) {
      const size_t t = start + r;
      size_t c = 0;
      a2(r, c++) = 1.0;
      for (int i = 0; i < p; ++i) {
        a2(r, c++) = x[t - 1 - static_cast<size_t>(i)];
      }
      for (int j = 0; j < q; ++j) {
        a2(r, c++) = e[t - 1 - static_cast<size_t>(j)];
      }
      b2(r, 0) = x[t];
    }
    RPAS_ASSIGN_OR_RETURN(tensor::Matrix coeffs2,
                          tensor::SolveLeastSquares(a2, b2, options_.ridge));
    intercept_ = coeffs2(0, 0);
    phi_.assign(static_cast<size_t>(p), 0.0);
    theta_.assign(static_cast<size_t>(q), 0.0);
    for (int i = 0; i < p; ++i) {
      phi_[static_cast<size_t>(i)] = coeffs2(1 + static_cast<size_t>(i), 0);
    }
    for (int j = 0; j < q; ++j) {
      theta_[static_cast<size_t>(j)] =
          coeffs2(1 + static_cast<size_t>(p) + static_cast<size_t>(j), 0);
    }
  }

  // Innovation variance from the final model's residuals.
  const std::vector<double> final_e =
      ArmaResiduals(x, phi_, theta_, intercept_);
  const size_t warmup = static_cast<size_t>(std::max(p, q));
  double ss = 0.0;
  size_t count = 0;
  for (size_t t = warmup; t < final_e.size(); ++t) {
    ss += final_e[t] * final_e[t];
    ++count;
  }
  sigma2_ = count > 0 ? ss / static_cast<double>(count) : 1.0;
  sigma2_ = std::max(sigma2_, 1e-12);

  // Seed the streaming residual state with the fitted coefficients and the
  // full training series; its per-point recursion reproduces the batch
  // residual pass above bit for bit, so IncrementalUpdate can extend it.
  state_.emplace(
      ts::ArimaStateConfig{phi_, theta_, intercept_, DifferenceLags()});
  state_->PushAll(train.values);

  fitted_ = true;
  return Status::OK();
}

Result<Forecaster::IncrementalUpdateReport> ArimaForecaster::IncrementalUpdate(
    const ts::TimeSeries& history, size_t new_points) {
  if (!fitted_ || !state_.has_value()) {
    return Status::FailedPrecondition("ARIMA: Fit() not called");
  }
  if (new_points > history.size()) {
    return Status::InvalidArgument(
        "ARIMA: new_points exceeds history length");
  }
  for (size_t t = history.size() - new_points; t < history.size(); ++t) {
    state_->Push(history.values[t]);
  }
  if (state_->num_residuals() > 0) {
    sigma2_ = state_->Sigma2();
  }
  IncrementalUpdateReport report;
  report.points = new_points;
  return report;
}

Status ArimaForecaster::ResyncState(const ts::TimeSeries& history) {
  if (!fitted_ || !state_.has_value()) {
    return Status::FailedPrecondition("ARIMA: Fit() not called");
  }
  state_->Reset();
  state_->PushAll(history.values);
  if (state_->num_residuals() > 0) {
    sigma2_ = state_->Sigma2();
  }
  return Status::OK();
}

Result<ts::QuantileForecast> ArimaForecaster::Predict(
    const ForecastInput& input) const {
  if (!fitted_) {
    return Status::FailedPrecondition("ARIMA: Fit() not called");
  }
  RPAS_RETURN_IF_ERROR(CheckContextFinite("ARIMA", input));
  const size_t p = phi_.size();
  const size_t q = theta_.size();
  const size_t h = options_.horizon;
  const std::vector<size_t> lags = DifferenceLags();

  // Differencing stages: stages[0] is the raw context, stages[k] the series
  // after the k-th differencing op. Kept so forecasts can be re-integrated.
  std::vector<std::vector<double>> stages;
  stages.push_back(input.context);
  for (size_t lag : lags) {
    if (stages.back().size() <= lag) {
      return Status::InvalidArgument(
          "ARIMA: context too short for differencing");
    }
    stages.push_back(DifferenceAtLag(stages.back(), lag));
  }
  const std::vector<double>& x = stages.back();
  if (x.size() < std::max(p, q) + 1) {
    return Status::InvalidArgument("ARIMA: context too short");
  }
  const std::vector<double> e = ArmaResiduals(x, phi_, theta_, intercept_);

  // Iterate the recursion forward; future innovations are zero.
  std::vector<double> ext_x = x;
  std::vector<double> ext_e = e;
  for (size_t step = 0; step < h; ++step) {
    const size_t t = ext_x.size();
    double pred = intercept_;
    for (size_t i = 0; i < p; ++i) {
      pred += phi_[i] * ext_x[t - 1 - i];
    }
    for (size_t j = 0; j < q; ++j) {
      pred += theta_[j] * ext_e[t - 1 - j];
    }
    ext_x.push_back(pred);
    ext_e.push_back(0.0);
  }
  std::vector<double> forecast(ext_x.end() - static_cast<long>(h),
                               ext_x.end());

  // Re-integrate through the differencing stages in reverse order:
  // stage k forecasts f_k satisfy f_k[t] = f_{k+1}[t] + value of stage k at
  // (t - lag_k), which is a past observation for t < lag_k and an earlier
  // forecast afterwards.
  for (size_t k = lags.size(); k-- > 0;) {
    const size_t lag = lags[k];
    const std::vector<double>& base = stages[k];
    std::vector<double> integrated(h);
    for (size_t t = 0; t < h; ++t) {
      const double previous =
          t < lag ? base[base.size() - lag + t] : integrated[t - lag];
      integrated[t] = forecast[t] + previous;
    }
    forecast = std::move(integrated);
  }
  const std::vector<double>& mean = forecast;

  // Psi weights of the integrated model: the AR polynomial is
  // phi(B) * prod_k (1 - B^{lag_k}).
  std::vector<double> poly(p + 1, 0.0);
  poly[0] = 1.0;
  for (size_t i = 1; i <= p; ++i) {
    poly[i] = -phi_[i - 1];
  }
  for (size_t lag : lags) {
    poly = MultiplyByOneMinusBLag(poly, lag);
  }
  // X_t = sum_i Phi_i X_{t-i} + ... with Phi_i = -poly[i].
  std::vector<double> big_phi(poly.size() - 1);
  for (size_t i = 1; i < poly.size(); ++i) {
    big_phi[i - 1] = -poly[i];
  }

  // Psi-weight recursion: psi_0 = 1,
  // psi_j = theta_j + sum_i Phi_i psi_{j-i}.
  std::vector<double> psi(h);
  for (size_t j = 0; j < h; ++j) {
    double value = j == 0 ? 1.0 : 0.0;
    if (j >= 1 && j <= q) {
      value += theta_[j - 1];
    }
    for (size_t i = 1; i <= big_phi.size() && i <= j; ++i) {
      value += big_phi[i - 1] * psi[j - i];
    }
    psi[j] = value;
  }

  // Forecast standard deviation at each step.
  std::vector<double> stddev(h);
  double cum = 0.0;
  for (size_t step = 0; step < h; ++step) {
    cum += psi[step] * psi[step];
    stddev[step] = std::sqrt(sigma2_ * cum);
  }

  std::vector<std::vector<double>> values(h);
  for (size_t step = 0; step < h; ++step) {
    values[step].reserve(options_.levels.size());
    for (double tau : options_.levels) {
      values[step].push_back(mean[step] +
                             stddev[step] * dist::NormalQuantile(tau));
    }
  }
  return ts::QuantileForecast(options_.levels, std::move(values));
}

}  // namespace rpas::forecast
