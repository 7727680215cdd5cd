#include "forecast/mlp.h"

#include <cmath>

#include "common/logging.h"
#include "common/strings.h"
#include "dist/special.h"
#include "forecast/time_features.h"
#include "nn/losses.h"
#include "nn/qcheckpoint.h"
#include "tensor/ops.h"
#include "ts/window.h"

namespace rpas::forecast {

using autodiff::Tape;
using autodiff::Var;
using tensor::Matrix;

MlpForecaster::MlpForecaster(Options options) : options_(std::move(options)) {
  RPAS_CHECK(options_.context_length > 0 && options_.horizon > 0);
  if (options_.levels.empty()) {
    options_.levels = DefaultQuantileLevels();
  }
}

size_t MlpForecaster::InputDim() const {
  return options_.context_length +
         (options_.use_time_features ? kNumTimeFeatures : 0);
}

std::vector<double> MlpForecaster::BuildFeatures(
    const ForecastInput& input) const {
  RPAS_CHECK(input.context.size() == options_.context_length);
  std::vector<double> features;
  features.reserve(InputDim());
  for (double v : input.context) {
    features.push_back(scaler_.Transform(v));
  }
  if (options_.use_time_features) {
    const auto tf = TimeFeatures(input.forecast_start(), input.step_minutes);
    features.insert(features.end(), tf.begin(), tf.end());
  }
  return features;
}

void MlpForecaster::BuildModel() {
  Rng init_rng(options_.seed);
  fc1_ = std::make_unique<nn::Dense>(InputDim(), options_.hidden_dim,
                                     nn::Dense::Activation::kRelu, &init_rng);
  if (options_.num_hidden_layers >= 2) {
    fc2_ = std::make_unique<nn::Dense>(options_.hidden_dim,
                                       options_.hidden_dim,
                                       nn::Dense::Activation::kRelu,
                                       &init_rng);
  } else {
    fc2_.reset();
  }
  head_ = std::make_unique<nn::Dense>(options_.hidden_dim,
                                      2 * options_.horizon,
                                      nn::Dense::Activation::kNone,
                                      &init_rng);
}

std::vector<autodiff::Parameter*> MlpForecaster::AllParams() const {
  std::vector<autodiff::Parameter*> params;
  for (nn::Dense* layer : {fc1_.get(), fc2_.get(), head_.get()}) {
    if (layer == nullptr) {
      continue;
    }
    for (auto* p : layer->Params()) {
      params.push_back(p);
    }
  }
  return params;
}

std::string MlpForecaster::Signature() const {
  return StrFormat("MLP ctx=%zu h=%zu hidden=%zu layers=%zu tf=%d",
                   options_.context_length, options_.horizon,
                   options_.hidden_dim, options_.num_hidden_layers,
                   options_.use_time_features ? 1 : 0);
}

Status MlpForecaster::SaveCheckpoint(const std::string& path) const {
  if (!fitted_) {
    return Status::FailedPrecondition("MLP: cannot save an unfitted model");
  }
  // The global scaler rides along as an extra 1x2 tensor [shift, scale].
  autodiff::Parameter scaler_tensor(
      Matrix{{scaler_.shift(), scaler_.scale()}});
  std::vector<autodiff::Parameter*> params = AllParams();
  params.push_back(&scaler_tensor);
  return nn::SaveParameters(path, Signature(), params);
}

Status MlpForecaster::LoadCheckpoint(const std::string& path) {
  // Restore into fresh layers and commit them and the scaler only on
  // success, so a failed load leaves the served model untouched.
  MlpForecaster staged(options_);
  staged.BuildModel();
  autodiff::Parameter scaler_tensor(Matrix(1, 2));
  std::vector<autodiff::Parameter*> params = staged.AllParams();
  params.push_back(&scaler_tensor);
  RPAS_RETURN_IF_ERROR(nn::LoadParameters(path, Signature(), params));
  return CommitStaged(&staged, scaler_tensor, nullptr);
}

Status MlpForecaster::LoadQuantizedCheckpoint(
    std::shared_ptr<const nn::QuantizedCheckpoint> checkpoint) {
  if (checkpoint == nullptr) {
    return Status::InvalidArgument("MLP: null quantized checkpoint");
  }
  // Staged like LoadCheckpoint. Tensor order is SaveCheckpoint's: per layer
  // (weight, bias), then the 1x2 scaler [shift, scale].
  MlpForecaster staged(options_);
  staged.BuildModel();
  autodiff::Parameter scaler_tensor(Matrix(1, 2));
  std::vector<autodiff::Parameter*> params = staged.AllParams();
  params.push_back(&scaler_tensor);
  RPAS_RETURN_IF_ERROR(nn::CheckLayout(*checkpoint, Signature(), params));
  size_t idx = 0;
  for (nn::Dense* layer :
       {staged.fc1_.get(), staged.fc2_.get(), staged.head_.get()}) {
    if (layer == nullptr) {
      continue;
    }
    RPAS_RETURN_IF_ERROR(
        layer->SetQuantizedWeights(checkpoint->tensor(idx++).view));
    RPAS_RETURN_IF_ERROR(
        nn::AssignDequantized(checkpoint->tensor(idx++), layer->Params()[1]));
  }
  RPAS_RETURN_IF_ERROR(
      nn::AssignDequantized(checkpoint->tensor(idx), &scaler_tensor));
  return CommitStaged(&staged, scaler_tensor, std::move(checkpoint));
}

Status MlpForecaster::CommitStaged(
    MlpForecaster* staged, const autodiff::Parameter& scaler_tensor,
    std::shared_ptr<const nn::QuantizedCheckpoint> checkpoint) {
  if (scaler_tensor.value(0, 1) <= 0.0) {
    return Status::InvalidArgument("checkpoint holds a non-positive scale");
  }
  fc1_ = std::move(staged->fc1_);
  fc2_ = std::move(staged->fc2_);
  head_ = std::move(staged->head_);
  scaler_ = ts::AffineScaler(scaler_tensor.value(0, 0),
                             scaler_tensor.value(0, 1));
  qckpt_ = std::move(checkpoint);
  fitted_ = true;
  return Status::OK();
}

nn::TrainSummary MlpForecaster::RunTraining(const ts::WindowDataset& dataset,
                                            double step_minutes,
                                            const nn::TrainConfig& config) {
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  std::vector<autodiff::Parameter*> params = AllParams();

  auto loss_fn = [&, step_minutes](Tape* tape, Rng* rng) -> Var {
    const std::vector<size_t> indices =
        dataset.SampleIndices(options_.batch_size, rng);
    const size_t batch = indices.size();
    // Arena-backed leaves filled in place (no per-step matrix allocation).
    Var x = tape->Input(batch, InputDim());
    Var y = tape->Input(batch, h);
    Matrix& features = *tape->MutableValue(x);
    Matrix& targets = *tape->MutableValue(y);
    for (size_t r = 0; r < batch; ++r) {
      const ts::Window& w = dataset[indices[r]];
      for (size_t j = 0; j < t_len; ++j) {
        features(r, j) = scaler_.Transform(w.context[j]);
      }
      if (options_.use_time_features) {
        const auto tf = TimeFeatures(w.begin + t_len, step_minutes);
        for (size_t j = 0; j < kNumTimeFeatures; ++j) {
          features(r, t_len + j) = tf[j];
        }
      }
      for (size_t j = 0; j < h; ++j) {
        targets(r, j) = scaler_.Transform(w.target[j]);
      }
    }
    Var hidden = fc1_->Forward(tape, x);
    if (fc2_) {
      hidden = fc2_->Forward(tape, hidden);
    }
    Var out = head_->Forward(tape, hidden);
    Var mu = tape->SliceCols(out, 0, h);
    Var sigma = tape->AddScalar(
        tape->Softplus(tape->SliceCols(out, h, 2 * h)), options_.min_sigma);
    return nn::GaussianNllLoss(tape, mu, sigma, y);
  };

  return nn::TrainLoop(config, params, loss_fn);
}

Status MlpForecaster::Fit(const ts::TimeSeries& train) {
  RPAS_RETURN_IF_ERROR(nn::ValidateTrainConfig(options_.train));
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  ts::WindowDataset dataset(train, t_len, h, /*stride=*/1);
  if (dataset.empty()) {
    return Status::InvalidArgument("MLP: training series too short");
  }
  scaler_ = ts::AffineScaler::FitStandard(train.values);

  BuildModel();
  nn::TrainConfig config = options_.train;
  config.seed = options_.seed + 1;
  RunTraining(dataset, train.step_minutes, config);
  fitted_ = true;
  return Status::OK();
}

Result<Forecaster::IncrementalUpdateReport> MlpForecaster::IncrementalUpdate(
    const ts::TimeSeries& history, size_t new_points) {
  if (!fitted_) {
    return Status::FailedPrecondition("MLP: Fit() not called");
  }
  if (qckpt_ != nullptr) {
    return Status::FailedPrecondition(
        "MLP: model restored from a quantized checkpoint is frozen");
  }
  if (new_points > history.size()) {
    return Status::InvalidArgument("MLP: new_points exceeds history length");
  }
  nn::TrainConfig config = options_.train;
  config.steps = options_.fine_tune_steps;
  if (options_.fine_tune_lr > 0.0) {
    config.lr = options_.fine_tune_lr;
  }
  RPAS_RETURN_IF_ERROR(nn::ValidateTrainConfig(config));
  IncrementalUpdateReport report;
  report.points = new_points;
  if (new_points == 0) {
    return report;
  }
  // Fine-tune only on windows whose target overlaps a new observation:
  // the first such window starts new_points + horizon - 1 steps before
  // the first new point's context end.
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  const size_t span = t_len + h - 1 + new_points;
  const size_t start = history.size() > span ? history.size() - span : 0;
  ts::TimeSeries suffix = history.Slice(start, history.size());
  // index_offset keeps Window::begin absolute so calendar features stay
  // phase-aligned with full-series training.
  ts::WindowDataset dataset(suffix, t_len, h, /*stride=*/1,
                            /*index_offset=*/start);
  if (dataset.empty()) {
    return report;  // not enough history for a single window yet
  }
  // Distinct, deterministic minibatch stream per update.
  config.seed = DeriveSeed(options_.seed, 0x57EA + update_count_);
  ++update_count_;
  const nn::TrainSummary summary =
      RunTraining(dataset, history.step_minutes, config);
  report.gradient_steps = summary.steps_run;
  return report;
}

Status MlpForecaster::CheckInput(const ForecastInput& input) const {
  if (!fitted_) {
    return Status::FailedPrecondition("MLP: Fit() not called");
  }
  return CheckContext("MLP", input, options_.context_length);
}

Result<MlpForecaster::GaussianParams> MlpForecaster::PredictDistribution(
    const ForecastInput& input) const {
  RPAS_RETURN_IF_ERROR(CheckInput(input));
  Matrix x = Matrix::RowVector(BuildFeatures(input));
  Matrix hidden = fc1_->Apply(x);
  if (fc2_) {
    hidden = fc2_->Apply(hidden);
  }
  Matrix out = head_->Apply(hidden);
  const size_t h = options_.horizon;
  GaussianParams dist;
  dist.mean.resize(h);
  dist.stddev.resize(h);
  for (size_t step = 0; step < h; ++step) {
    const double mu_scaled = out(0, step);
    const double raw = out(0, h + step);
    const double sigma_scaled =
        (raw > 0.0 ? raw : 0.0) + std::log1p(std::exp(-std::fabs(raw))) +
        options_.min_sigma;
    dist.mean[step] = scaler_.Inverse(mu_scaled);
    dist.stddev[step] = sigma_scaled * scaler_.scale();
  }
  return dist;
}

Result<ts::QuantileForecast> MlpForecaster::Predict(
    const ForecastInput& input) const {
  RPAS_ASSIGN_OR_RETURN(GaussianParams dist, PredictDistribution(input));
  const size_t h = options_.horizon;
  std::vector<std::vector<double>> values(h);
  for (size_t step = 0; step < h; ++step) {
    values[step].reserve(options_.levels.size());
    for (double tau : options_.levels) {
      values[step].push_back(dist.mean[step] +
                             dist.stddev[step] * dist::NormalQuantile(tau));
    }
  }
  return ts::QuantileForecast(options_.levels, std::move(values));
}

Result<std::vector<ts::QuantileForecast>> MlpForecaster::PredictBatch(
    const std::vector<ForecastInput>& inputs,
    const std::vector<uint64_t>& seeds) const {
  if (inputs.size() != seeds.size()) {
    return Status::InvalidArgument(
        "MLP PredictBatch: inputs and seeds must have equal length");
  }
  if (!fitted_) {
    return Status::FailedPrecondition("MLP: Fit() not called");
  }
  const size_t batch = inputs.size();
  if (batch == 0) {
    return std::vector<ts::QuantileForecast>{};
  }
  for (const ForecastInput& input : inputs) {
    RPAS_RETURN_IF_ERROR(CheckInput(input));
  }
  Matrix x(batch, InputDim());
  for (size_t r = 0; r < batch; ++r) {
    const std::vector<double> features = BuildFeatures(inputs[r]);
    for (size_t j = 0; j < features.size(); ++j) {
      x(r, j) = features[j];
    }
  }
  Matrix hidden = fc1_->Apply(x);
  if (fc2_) {
    hidden = fc2_->Apply(hidden);
  }
  Matrix out = head_->Apply(hidden);
  const size_t h = options_.horizon;
  std::vector<ts::QuantileForecast> forecasts;
  forecasts.reserve(batch);
  for (size_t r = 0; r < batch; ++r) {
    std::vector<std::vector<double>> values(h);
    for (size_t step = 0; step < h; ++step) {
      const double mu_scaled = out(r, step);
      const double raw = out(r, h + step);
      const double sigma_scaled =
          (raw > 0.0 ? raw : 0.0) + std::log1p(std::exp(-std::fabs(raw))) +
          options_.min_sigma;
      const double mean = scaler_.Inverse(mu_scaled);
      const double stddev = sigma_scaled * scaler_.scale();
      values[step].reserve(options_.levels.size());
      for (double tau : options_.levels) {
        values[step].push_back(mean + stddev * dist::NormalQuantile(tau));
      }
    }
    forecasts.emplace_back(options_.levels, std::move(values));
  }
  return forecasts;
}

}  // namespace rpas::forecast
