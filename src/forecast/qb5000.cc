#include "forecast/qb5000.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/losses.h"
#include "tensor/ops.h"
#include "ts/window.h"

namespace rpas::forecast {

using autodiff::Tape;
using autodiff::Var;
using tensor::Matrix;

Qb5000Forecaster::Qb5000Forecaster(Options options)
    : options_(std::move(options)) {
  RPAS_CHECK(options_.context_length > 0 && options_.horizon > 0);
  RPAS_CHECK(options_.kernel_bandwidth > 0.0);
}

std::vector<double> Qb5000Forecaster::LinearFeatures(
    const std::vector<double>& context, size_t forecast_start,
    double step_minutes) const {
  std::vector<double> f;
  f.reserve(context.size() + kNumTimeFeatures + 1);
  for (double v : context) {
    f.push_back(scaler_.Transform(v));
  }
  const auto tf = TimeFeatures(forecast_start, step_minutes);
  f.insert(f.end(), tf.begin(), tf.end());
  f.push_back(1.0);  // intercept
  return f;
}

Status Qb5000Forecaster::Fit(const ts::TimeSeries& train) {
  RPAS_RETURN_IF_ERROR(nn::ValidateTrainConfig(options_.train));
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  ts::WindowDataset dataset(train, t_len, h, /*stride=*/1);
  if (dataset.empty()) {
    return Status::InvalidArgument("QB5000: training series too short");
  }
  scaler_ = ts::AffineScaler::FitStandard(train.values);
  const double step_minutes = train.step_minutes;

  // ---- Component 1: direct multi-horizon ridge regression. ----
  {
    const size_t dim = t_len + kNumTimeFeatures + 1;
    Matrix a(dataset.size(), dim);
    for (size_t r = 0; r < dataset.size(); ++r) {
      const ts::Window& w = dataset[r];
      const std::vector<double> f =
          LinearFeatures(w.context, w.begin + t_len, step_minutes);
      for (size_t c = 0; c < dim; ++c) {
        a(r, c) = f[c];
      }
    }
    // Factor A^T A + ridge once; solve one RHS per horizon step.
    Matrix at = tensor::Transpose(a);
    Matrix ata = tensor::MatMul(at, a);
    for (size_t i = 0; i < dim; ++i) {
      ata(i, i) += options_.ridge;
    }
    lr_coeffs_ = Matrix(dim, h);
    for (size_t step = 0; step < h; ++step) {
      Matrix b(dataset.size(), 1);
      for (size_t r = 0; r < dataset.size(); ++r) {
        b(r, 0) = scaler_.Transform(dataset[r].target[step]);
      }
      RPAS_ASSIGN_OR_RETURN(
          Matrix coeffs,
          tensor::SolveLinearSystem(ata, tensor::MatMul(at, b)));
      for (size_t c = 0; c < dim; ++c) {
        lr_coeffs_(c, step) = coeffs(c, 0);
      }
    }
  }

  // ---- Component 2: autoregressive LSTM point model (MSE). ----
  {
    Rng init_rng(options_.seed);
    const size_t in_dim = 1 + kNumTimeFeatures;
    lstm_ = std::make_unique<nn::LstmCell>(in_dim, options_.lstm_hidden,
                                           &init_rng);
    lstm_head_ = std::make_unique<nn::Dense>(options_.lstm_hidden, 1,
                                             nn::Dense::Activation::kNone,
                                             &init_rng);
    std::vector<autodiff::Parameter*> params;
    for (nn::Module* m :
         std::initializer_list<nn::Module*>{lstm_.get(), lstm_head_.get()}) {
      for (auto* p : m->Params()) {
        params.push_back(p);
      }
    }
    auto loss_fn = [&, step_minutes](Tape* tape, Rng* rng) -> Var {
      const std::vector<size_t> indices =
          dataset.SampleIndices(options_.batch_size, rng);
      const size_t batch = indices.size();
      const size_t total = t_len + h;
      nn::LstmCell::State state = lstm_->ZeroState(tape, batch);
      Var loss;
      size_t terms = 0;
      for (size_t t = 1; t < total; ++t) {
        Var xv = tape->Input(batch, 1 + kNumTimeFeatures);
        Var yv = tape->Input(batch, 1);
        Matrix& x = *tape->MutableValue(xv);
        Matrix& target = *tape->MutableValue(yv);
        for (size_t r = 0; r < batch; ++r) {
          const ts::Window& w = dataset[indices[r]];
          const double prev =
              t - 1 < t_len ? w.context[t - 1] : w.target[t - 1 - t_len];
          const double cur = t < t_len ? w.context[t] : w.target[t - t_len];
          x(r, 0) = scaler_.Transform(prev);
          const auto tf = TimeFeatures(w.begin + t, step_minutes);
          for (size_t j = 0; j < kNumTimeFeatures; ++j) {
            x(r, 1 + j) = tf[j];
          }
          target(r, 0) = scaler_.Transform(cur);
        }
        state = lstm_->Step(tape, xv, state);
        Var pred = lstm_head_->Forward(tape, state.h);
        Var mse = nn::MseLoss(tape, pred, yv);
        loss = terms == 0 ? mse : tape->Add(loss, mse);
        ++terms;
      }
      return tape->Scale(loss, 1.0 / static_cast<double>(terms));
    };
    nn::TrainConfig config = options_.train;
    config.seed = options_.seed + 1;
    nn::TrainLoop(config, params, loss_fn);
  }

  // ---- Component 3: kernel-regression exemplars. ----
  {
    kernel_contexts_.clear();
    kernel_futures_.clear();
    Rng rng(options_.seed + 2);
    const std::vector<size_t> indices =
        dataset.SampleIndices(options_.max_kernel_windows, &rng);
    for (size_t idx : indices) {
      const ts::Window& w = dataset[idx];
      kernel_contexts_.push_back(scaler_.Transform(w.context));
      kernel_futures_.push_back(scaler_.Transform(w.target));
    }
  }

  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> Qb5000Forecaster::PredictLinear(
    const ForecastInput& input) const {
  if (!fitted_) {
    return Status::FailedPrecondition("QB5000: Fit() not called");
  }
  const std::vector<double> f = LinearFeatures(
      input.context, input.forecast_start(), input.step_minutes);
  Matrix x = Matrix::RowVector(f);
  Matrix pred = tensor::MatMul(x, lr_coeffs_);
  std::vector<double> out(options_.horizon);
  for (size_t step = 0; step < options_.horizon; ++step) {
    out[step] = scaler_.Inverse(pred(0, step));
  }
  return out;
}

Result<std::vector<double>> Qb5000Forecaster::PredictLstm(
    const ForecastInput& input) const {
  if (!fitted_) {
    return Status::FailedPrecondition("QB5000: Fit() not called");
  }
  const size_t t_len = options_.context_length;
  nn::LstmCell::RawState state = lstm_->ZeroRawState(1);
  for (size_t t = 1; t < t_len; ++t) {
    Matrix x(1, 1 + kNumTimeFeatures);
    x(0, 0) = scaler_.Transform(input.context[t - 1]);
    const auto tf = TimeFeatures(input.start_index + t, input.step_minutes);
    for (size_t j = 0; j < kNumTimeFeatures; ++j) {
      x(0, 1 + j) = tf[j];
    }
    state = lstm_->Step(x, state);
  }
  std::vector<double> out(options_.horizon);
  double prev = scaler_.Transform(input.context.back());
  for (size_t step = 0; step < options_.horizon; ++step) {
    Matrix x(1, 1 + kNumTimeFeatures);
    x(0, 0) = prev;
    const auto tf =
        TimeFeatures(input.forecast_start() + step, input.step_minutes);
    for (size_t j = 0; j < kNumTimeFeatures; ++j) {
      x(0, 1 + j) = tf[j];
    }
    state = lstm_->Step(x, state);
    const double pred = lstm_head_->Apply(state.h)(0, 0);
    out[step] = scaler_.Inverse(pred);
    prev = pred;
  }
  return out;
}

Result<std::vector<double>> Qb5000Forecaster::PredictKernel(
    const ForecastInput& input) const {
  if (!fitted_) {
    return Status::FailedPrecondition("QB5000: Fit() not called");
  }
  const std::vector<double> query = scaler_.Transform(input.context);
  const double inv_2bw2 =
      1.0 / (2.0 * options_.kernel_bandwidth * options_.kernel_bandwidth);
  // Log-sum-exp-stable Nadaraya-Watson weights.
  std::vector<double> log_w(kernel_contexts_.size());
  double max_log_w = -1e300;
  for (size_t i = 0; i < kernel_contexts_.size(); ++i) {
    double d2 = 0.0;
    for (size_t t = 0; t < query.size(); ++t) {
      const double diff = query[t] - kernel_contexts_[i][t];
      d2 += diff * diff;
    }
    log_w[i] = -d2 * inv_2bw2;
    max_log_w = std::max(max_log_w, log_w[i]);
  }
  std::vector<double> out(options_.horizon, 0.0);
  double total_w = 0.0;
  for (size_t i = 0; i < kernel_contexts_.size(); ++i) {
    const double w = std::exp(log_w[i] - max_log_w);
    total_w += w;
    for (size_t step = 0; step < options_.horizon; ++step) {
      out[step] += w * kernel_futures_[i][step];
    }
  }
  for (size_t step = 0; step < options_.horizon; ++step) {
    out[step] = scaler_.Inverse(out[step] / total_w);
  }
  return out;
}

Result<std::vector<double>> Qb5000Forecaster::PredictPoint(
    const ForecastInput& input) const {
  RPAS_RETURN_IF_ERROR(
      CheckContext("QB5000", input, options_.context_length));
  RPAS_ASSIGN_OR_RETURN(std::vector<double> lr, PredictLinear(input));
  RPAS_ASSIGN_OR_RETURN(std::vector<double> lstm, PredictLstm(input));
  RPAS_ASSIGN_OR_RETURN(std::vector<double> kernel, PredictKernel(input));
  std::vector<double> out(options_.horizon);
  for (size_t step = 0; step < options_.horizon; ++step) {
    out[step] = (lr[step] + lstm[step] + kernel[step]) / 3.0;
  }
  return out;
}

Result<ts::QuantileForecast> Qb5000Forecaster::Predict(
    const ForecastInput& input) const {
  RPAS_ASSIGN_OR_RETURN(std::vector<double> point, PredictPoint(input));
  std::vector<std::vector<double>> values(point.size());
  for (size_t step = 0; step < point.size(); ++step) {
    values[step] = {point[step]};
  }
  return ts::QuantileForecast(levels_, std::move(values));
}

}  // namespace rpas::forecast
