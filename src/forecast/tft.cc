#include "forecast/tft.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/strings.h"
#include "nn/losses.h"
#include "nn/qcheckpoint.h"
#include "tensor/ops.h"
#include "ts/window.h"

namespace rpas::forecast {

using autodiff::Tape;
using autodiff::Var;
using tensor::Matrix;

namespace {
constexpr double kScaleEps = 1e-6;

double WindowScale(const std::vector<double>& context) {
  double mean_abs = 0.0;
  for (double v : context) {
    mean_abs += std::fabs(v);
  }
  mean_abs /= static_cast<double>(context.size());
  return std::max(mean_abs, kScaleEps);
}
}  // namespace

TftForecaster::TftForecaster(Options options) : options_(std::move(options)) {
  RPAS_CHECK(options_.context_length > 0 && options_.horizon > 0);
  RPAS_CHECK(options_.d_model % options_.num_heads == 0)
      << "d_model must be divisible by num_heads";
  if (options_.levels.empty()) {
    options_.levels = DefaultQuantileLevels();
  }
}

Var TftForecaster::ForwardWindow(Tape* tape,
                                 const std::vector<double>& scaled_context,
                                 size_t begin_index, double step_minutes) {
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  const size_t d = options_.d_model;
  RPAS_CHECK(scaled_context.size() == t_len);

  // Encoder: embed [y_t, calendar] per step and run the LSTM, stacking
  // hidden states into the attention memory E (T x d).
  Var enc_v = tape->Input(t_len, kEncInDim);
  Matrix& enc_in = *tape->MutableValue(enc_v);
  for (size_t t = 0; t < t_len; ++t) {
    enc_in(t, 0) = scaled_context[t];
    const auto tf = TimeFeatures(begin_index + t, step_minutes);
    for (size_t j = 0; j < kNumTimeFeatures; ++j) {
      enc_in(t, 1 + j) = tf[j];
    }
  }
  Var enc_embedded = enc_embed_->Forward(tape, enc_v);
  nn::LstmCell::State state = lstm_->ZeroState(tape, 1);
  Var memory;  // grows to T x d
  for (size_t t = 0; t < t_len; ++t) {
    Var x_t = tape->SliceRows(enc_embedded, t, t + 1);
    state = lstm_->Step(tape, x_t, state);
    memory = t == 0 ? state.h : tape->ConcatRows(memory, state.h);
  }

  // Decoder: embed future calendar features, continue the LSTM, stack
  // decoder states D (H x d).
  Var dec_v = tape->Input(h, kDecInDim);
  Matrix& dec_in = *tape->MutableValue(dec_v);
  for (size_t step = 0; step < h; ++step) {
    const auto tf = TimeFeatures(begin_index + t_len + step, step_minutes);
    for (size_t j = 0; j < kNumTimeFeatures; ++j) {
      dec_in(step, j) = tf[j];
    }
  }
  Var dec_embedded = dec_embed_->Forward(tape, dec_v);
  Var decoded;
  for (size_t step = 0; step < h; ++step) {
    Var x_t = tape->SliceRows(dec_embedded, step, step + 1);
    state = lstm_->Step(tape, x_t, state);
    decoded = step == 0 ? state.h : tape->ConcatRows(decoded, state.h);
  }

  // Temporal fusion: attention over the encoder memory, then a gated
  // residual fusion of decoder states with attention context.
  Var attended = attention_->Forward(tape, decoded, memory);
  Var fused = fusion_->Forward(tape, tape->ConcatCols(decoded, attended));
  (void)d;
  return head_->Forward(tape, fused);  // H x Q, scaled space
}

Matrix TftForecaster::ApplyWindow(const std::vector<double>& scaled_context,
                                  size_t begin_index,
                                  double step_minutes) const {
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  RPAS_CHECK(scaled_context.size() == t_len);

  Matrix enc_in(t_len, kEncInDim);
  for (size_t t = 0; t < t_len; ++t) {
    enc_in(t, 0) = scaled_context[t];
    const auto tf = TimeFeatures(begin_index + t, step_minutes);
    for (size_t j = 0; j < kNumTimeFeatures; ++j) {
      enc_in(t, 1 + j) = tf[j];
    }
  }
  Matrix enc_embedded = enc_embed_->Apply(enc_in);
  nn::LstmCell::RawState state = lstm_->ZeroRawState(1);
  Matrix memory(t_len, options_.d_model);
  for (size_t t = 0; t < t_len; ++t) {
    state = lstm_->Step(tensor::SliceRows(enc_embedded, t, t + 1), state);
    for (size_t c = 0; c < options_.d_model; ++c) {
      memory(t, c) = state.h(0, c);
    }
  }

  Matrix dec_in(h, kDecInDim);
  for (size_t step = 0; step < h; ++step) {
    const auto tf = TimeFeatures(begin_index + t_len + step, step_minutes);
    for (size_t j = 0; j < kNumTimeFeatures; ++j) {
      dec_in(step, j) = tf[j];
    }
  }
  Matrix dec_embedded = dec_embed_->Apply(dec_in);
  Matrix decoded(h, options_.d_model);
  for (size_t step = 0; step < h; ++step) {
    state = lstm_->Step(tensor::SliceRows(dec_embedded, step, step + 1),
                        state);
    for (size_t c = 0; c < options_.d_model; ++c) {
      decoded(step, c) = state.h(0, c);
    }
  }

  Matrix attended = attention_->Apply(decoded, memory);
  Matrix fused = fusion_->Apply(tensor::ConcatCols(decoded, attended));
  return head_->Apply(fused);
}

void TftForecaster::BuildModel() {
  Rng init_rng(options_.seed);
  const size_t d = options_.d_model;
  enc_embed_ = std::make_unique<nn::Dense>(kEncInDim, d,
                                           nn::Dense::Activation::kNone,
                                           &init_rng);
  dec_embed_ = std::make_unique<nn::Dense>(kDecInDim, d,
                                           nn::Dense::Activation::kNone,
                                           &init_rng);
  lstm_ = std::make_unique<nn::LstmCell>(d, d, &init_rng);
  attention_ = std::make_unique<nn::InterpretableMultiHeadAttention>(
      d, options_.num_heads, &init_rng);
  fusion_ = std::make_unique<nn::GatedResidualNetwork>(2 * d, d, d,
                                                       &init_rng);
  head_ = std::make_unique<nn::Dense>(d, options_.levels.size(),
                                      nn::Dense::Activation::kNone,
                                      &init_rng);
}

std::vector<autodiff::Parameter*> TftForecaster::AllParams() const {
  std::vector<autodiff::Parameter*> params;
  for (nn::Module* m : std::initializer_list<nn::Module*>{
           enc_embed_.get(), dec_embed_.get(), lstm_.get(), attention_.get(),
           fusion_.get(), head_.get()}) {
    for (auto* p : m->Params()) {
      params.push_back(p);
    }
  }
  return params;
}

std::string TftForecaster::Signature() const {
  return StrFormat("TFT ctx=%zu h=%zu d=%zu heads=%zu q=%zu",
                   options_.context_length, options_.horizon,
                   options_.d_model, options_.num_heads,
                   options_.levels.size());
}

Status TftForecaster::SaveCheckpoint(const std::string& path) const {
  if (!fitted_) {
    return Status::FailedPrecondition("TFT: cannot save an unfitted model");
  }
  return nn::SaveParameters(path, Signature(), AllParams());
}

Status TftForecaster::LoadCheckpoint(const std::string& path) {
  // Restore into fresh layers and commit them only on success, so a failed
  // load leaves the served weights untouched.
  TftForecaster staged(options_);
  staged.BuildModel();
  RPAS_RETURN_IF_ERROR(
      nn::LoadParameters(path, Signature(), staged.AllParams()));
  enc_embed_ = std::move(staged.enc_embed_);
  dec_embed_ = std::move(staged.dec_embed_);
  lstm_ = std::move(staged.lstm_);
  attention_ = std::move(staged.attention_);
  fusion_ = std::move(staged.fusion_);
  head_ = std::move(staged.head_);
  fitted_ = true;
  return Status::OK();
}

Status TftForecaster::Fit(const ts::TimeSeries& train) {
  RPAS_RETURN_IF_ERROR(nn::ValidateTrainConfig(options_.train));
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  ts::WindowDataset dataset(train, t_len, h, /*stride=*/1);
  if (dataset.empty()) {
    return Status::InvalidArgument("TFT: training series too short");
  }

  BuildModel();
  std::vector<autodiff::Parameter*> params = AllParams();

  const double step_minutes = train.step_minutes;
  auto loss_fn = [&, step_minutes](Tape* tape, Rng* rng) -> Var {
    const std::vector<size_t> indices =
        dataset.SampleIndices(options_.batch_size, rng);
    Var total;
    for (size_t b = 0; b < indices.size(); ++b) {
      const ts::Window& w = dataset[indices[b]];
      const double scale = WindowScale(w.context);
      std::vector<double> scaled_context(t_len);
      for (size_t t = 0; t < t_len; ++t) {
        scaled_context[t] = w.context[t] / scale;
      }
      Var pred = ForwardWindow(tape, scaled_context, w.begin, step_minutes);
      Var yv = tape->Input(h, 1);
      Matrix& target = *tape->MutableValue(yv);
      for (size_t step = 0; step < h; ++step) {
        target(step, 0) = w.target[step] / scale;
      }
      Var loss = nn::QuantileGridLoss(tape, pred, yv, options_.levels);
      total = b == 0 ? loss : tape->Add(total, loss);
    }
    return tape->Scale(total, 1.0 / static_cast<double>(indices.size()));
  };

  nn::TrainConfig config = options_.train;
  config.seed = options_.seed + 1;
  nn::TrainLoop(config, params, loss_fn);
  fitted_ = true;
  return Status::OK();
}

Result<ts::QuantileForecast> TftForecaster::Predict(
    const ForecastInput& input) const {
  if (!fitted_) {
    return Status::FailedPrecondition("TFT: Fit() not called");
  }
  RPAS_RETURN_IF_ERROR(
      CheckContext("TFT", input, options_.context_length));
  const double scale = WindowScale(input.context);
  std::vector<double> scaled_context(input.context.size());
  for (size_t t = 0; t < input.context.size(); ++t) {
    scaled_context[t] = input.context[t] / scale;
  }
  Matrix pred =
      ApplyWindow(scaled_context, input.start_index, input.step_minutes);
  const size_t h = options_.horizon;
  std::vector<std::vector<double>> values(h);
  for (size_t step = 0; step < h; ++step) {
    values[step].reserve(options_.levels.size());
    for (size_t q = 0; q < options_.levels.size(); ++q) {
      values[step].push_back(pred(step, q) * scale);
    }
  }
  ts::QuantileForecast forecast(options_.levels, std::move(values));
  // The per-quantile heads are trained jointly but independently; enforce
  // non-crossing quantiles per step.
  forecast.SortQuantilesPerStep();
  return forecast;
}

}  // namespace rpas::forecast
