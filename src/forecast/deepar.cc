#include "forecast/deepar.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "dist/empirical.h"
#include "nn/checkpoint.h"
#include "nn/losses.h"
#include "tensor/kernels.h"
#include "ts/window.h"

namespace rpas::forecast {

using autodiff::Tape;
using autodiff::Var;
using tensor::Matrix;
namespace kernels = ::rpas::tensor::kernels;

namespace {
constexpr double kScaleEps = 1e-6;

double SoftplusScalar(double x) {
  return (x > 0.0 ? x : 0.0) + std::log1p(std::exp(-std::fabs(x)));
}

/// Per-window mean-abs scale (DeepAR's standard per-item scaling).
double WindowScale(const std::vector<double>& context) {
  double mean_abs = 0.0;
  for (double v : context) {
    mean_abs += std::fabs(v);
  }
  mean_abs /= static_cast<double>(context.size());
  return std::max(mean_abs, kScaleEps);
}

/// fp64 image of one layer weight as the layer's GEMM multiplies it: a
/// quantized payload decoded exactly as kernels::GemmQuant decodes it, else
/// the parameter itself.
void WeightImage(const Matrix& param, const tensor::QTensorView& view,
                 double* out) {
  if (view.valid()) {
    tensor::DecodePayload(view.dtype, view.payload, view.size(), out);
  } else {
    std::copy(param.data(), param.data() + param.size(), out);
  }
}
}  // namespace

DeepArForecaster::DeepArForecaster(Options options)
    : options_(std::move(options)), sample_rng_(options_.seed ^ 0xD1CEu) {
  RPAS_CHECK(options_.context_length > 0 && options_.horizon > 0);
  RPAS_CHECK(options_.num_samples >= 2);
  if (options_.levels.empty()) {
    options_.levels = DefaultQuantileLevels();
  }
}

void DeepArForecaster::BuildModel() {
  Rng init_rng(options_.seed);
  lstm_ = std::make_unique<nn::LstmCell>(kInputDim, options_.hidden_dim,
                                         &init_rng);
  mu_head_ = std::make_unique<nn::Dense>(options_.hidden_dim, 1,
                                         nn::Dense::Activation::kNone,
                                         &init_rng);
  sigma_head_ = std::make_unique<nn::Dense>(options_.hidden_dim, 1,
                                            nn::Dense::Activation::kNone,
                                            &init_rng);
}

std::vector<autodiff::Parameter*> DeepArForecaster::AllParams() const {
  std::vector<autodiff::Parameter*> params;
  for (nn::Module* m : std::initializer_list<nn::Module*>{
           lstm_.get(), mu_head_.get(), sigma_head_.get()}) {
    for (auto* p : m->Params()) {
      params.push_back(p);
    }
  }
  return params;
}

std::string DeepArForecaster::Signature() const {
  return StrFormat("DeepAR ctx=%zu h=%zu hidden=%zu head=%d",
                   options_.context_length, options_.horizon,
                   options_.hidden_dim, static_cast<int>(options_.head));
}

Status DeepArForecaster::Save(const std::string& path) const {
  if (!fitted_) {
    return Status::FailedPrecondition(
        "DeepAR: cannot save an unfitted model");
  }
  return nn::SaveParameters(path, Signature(), AllParams());
}

Status DeepArForecaster::Load(const std::string& path) {
  BuildModel();
  RPAS_RETURN_IF_ERROR(nn::LoadParameters(path, Signature(), AllParams()));
  fitted_ = true;
  return Status::OK();
}

Status DeepArForecaster::LoadQuantizedCheckpoint(
    std::shared_ptr<const nn::QuantizedCheckpoint> checkpoint) {
  if (checkpoint == nullptr) {
    return Status::InvalidArgument("DeepAR: null quantized checkpoint");
  }
  if (checkpoint->signature() != Signature()) {
    return Status::InvalidArgument(
        StrFormat("DeepAR: checkpoint signature '%s' does not match '%s'",
                  checkpoint->signature().c_str(), Signature().c_str()));
  }
  BuildModel();
  // Tensor order mirrors Save()/AllParams(): lstm (w_x, w_h, b), then
  // (weight, bias) for each head.
  constexpr size_t kExpected = 7;
  if (checkpoint->num_tensors() != kExpected) {
    return Status::InvalidArgument(
        StrFormat("DeepAR: checkpoint holds %zu tensors, expected %zu",
                  checkpoint->num_tensors(), kExpected));
  }
  RPAS_RETURN_IF_ERROR(lstm_->SetQuantizedWeights(
      checkpoint->tensor(0).view, checkpoint->tensor(1).view));
  RPAS_RETURN_IF_ERROR(
      nn::AssignDequantized(checkpoint->tensor(2), lstm_->Params()[2]));
  size_t idx = 3;
  for (nn::Dense* head : {mu_head_.get(), sigma_head_.get()}) {
    RPAS_RETURN_IF_ERROR(
        head->SetQuantizedWeights(checkpoint->tensor(idx++).view));
    RPAS_RETURN_IF_ERROR(
        nn::AssignDequantized(checkpoint->tensor(idx++), head->Params()[1]));
  }
  qckpt_ = std::move(checkpoint);
  fitted_ = true;
  return Status::OK();
}

nn::TrainSummary DeepArForecaster::RunTraining(
    const ts::WindowDataset& dataset, double step_minutes,
    const nn::TrainConfig& config) {
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  std::vector<autodiff::Parameter*> params = AllParams();

  auto loss_fn = [&, step_minutes](Tape* tape, Rng* rng) -> Var {
    const std::vector<size_t> indices =
        dataset.SampleIndices(options_.batch_size, rng);
    const size_t batch = indices.size();
    const size_t total = t_len + h;

    // Whole windows (context + target), per-window scaled.
    std::vector<std::vector<double>> scaled(batch);
    std::vector<size_t> begins(batch);
    for (size_t r = 0; r < batch; ++r) {
      const ts::Window& w = dataset[indices[r]];
      begins[r] = w.begin;
      const double scale = WindowScale(w.context);
      scaled[r].reserve(total);
      for (double v : w.context) {
        scaled[r].push_back(v / scale);
      }
      for (double v : w.target) {
        scaled[r].push_back(v / scale);
      }
    }

    // Teacher-forced unroll: at step t the input is the observed value at
    // t-1 plus calendar features of t; the head predicts the value at t.
    nn::LstmCell::State state = lstm_->ZeroState(tape, batch);
    Var total_nll;
    size_t terms = 0;
    for (size_t t = 1; t < total; ++t) {
      // Arena-backed leaves filled in place: the steady-state unroll reuses
      // the previous step's buffers instead of allocating fresh matrices.
      Var xv = tape->Input(batch, kInputDim);
      Var y = tape->Input(batch, 1);
      Matrix& x = *tape->MutableValue(xv);
      Matrix& target = *tape->MutableValue(y);
      for (size_t r = 0; r < batch; ++r) {
        x(r, 0) = scaled[r][t - 1];
        const auto tf = TimeFeatures(begins[r] + t, step_minutes);
        for (size_t j = 0; j < kNumTimeFeatures; ++j) {
          x(r, 1 + j) = tf[j];
        }
        target(r, 0) = scaled[r][t];
      }
      state = lstm_->Step(tape, xv, state);
      Var mu = mu_head_->Forward(tape, state.h);
      Var sigma = tape->AddScalar(
          tape->Softplus(sigma_head_->Forward(tape, state.h)),
          options_.min_sigma);
      Var nll = options_.head == Head::kStudentT
                    ? nn::StudentTNllLoss(tape, mu, sigma, y,
                                          options_.student_t_dof)
                    : nn::GaussianNllLoss(tape, mu, sigma, y);
      total_nll = terms == 0 ? nll : tape->Add(total_nll, nll);
      ++terms;
    }
    return tape->Scale(total_nll, 1.0 / static_cast<double>(terms));
  };

  return nn::TrainLoop(config, params, loss_fn);
}

Status DeepArForecaster::Fit(const ts::TimeSeries& train) {
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  ts::WindowDataset dataset(train, t_len, h, /*stride=*/1);
  if (dataset.empty()) {
    return Status::InvalidArgument("DeepAR: training series too short");
  }

  BuildModel();
  nn::TrainConfig config = options_.train;
  config.seed = options_.seed + 1;
  RunTraining(dataset, train.step_minutes, config);
  fitted_ = true;
  return Status::OK();
}

Result<Forecaster::IncrementalUpdateReport>
DeepArForecaster::IncrementalUpdate(const ts::TimeSeries& history,
                                    size_t new_points) {
  if (!fitted_) {
    return Status::FailedPrecondition("DeepAR: Fit() not called");
  }
  if (qckpt_ != nullptr) {
    return Status::FailedPrecondition(
        "DeepAR: model restored from a quantized checkpoint is frozen");
  }
  if (new_points > history.size()) {
    return Status::InvalidArgument(
        "DeepAR: new_points exceeds history length");
  }
  IncrementalUpdateReport report;
  report.points = new_points;
  if (new_points == 0) {
    return report;
  }
  // Fine-tune only on windows whose target overlaps a new observation.
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  const size_t span = t_len + h - 1 + new_points;
  const size_t start = history.size() > span ? history.size() - span : 0;
  ts::TimeSeries suffix = history.Slice(start, history.size());
  // index_offset keeps Window::begin absolute so the teacher-forced
  // unroll's calendar features stay phase-aligned with full-series
  // training.
  ts::WindowDataset dataset(suffix, t_len, h, /*stride=*/1,
                            /*index_offset=*/start);
  if (dataset.empty()) {
    return report;  // not enough history for a single window yet
  }
  nn::TrainConfig config = options_.train;
  config.steps = options_.fine_tune_steps;
  if (options_.fine_tune_lr > 0.0) {
    config.lr = options_.fine_tune_lr;
  }
  // Distinct, deterministic minibatch stream per update.
  config.seed = DeriveSeed(options_.seed, 0x57EA + update_count_);
  ++update_count_;
  const nn::TrainSummary summary =
      RunTraining(dataset, history.step_minutes, config);
  report.gradient_steps = summary.steps_run;
  return report;
}

Status DeepArForecaster::CheckInput(const ForecastInput& input) const {
  if (!fitted_) {
    return Status::FailedPrecondition("DeepAR: Fit() not called");
  }
  if (input.context.size() != options_.context_length) {
    return Status::InvalidArgument("DeepAR: context length mismatch");
  }
  return Status::OK();
}

Rng DeepArForecaster::SamplingRng(uint64_t seed) {
  return Rng(DeriveSeed(seed, 0xD1CEu));
}

std::vector<double> DeepArForecaster::SampleRoll(const ForecastInput* inputs,
                                                 Rng* rngs, size_t requests,
                                                 size_t num_samples) const {
  const size_t hd = options_.hidden_dim;
  const size_t gw = 4 * hd;  // gate columns
  const size_t rows = requests * num_samples;
  const kernels::SimdLevel level = kernels::ActiveLevel();
  const tensor::QTensorView& qwx = lstm_->quantized_w_x();
  const tensor::QTensorView& qwh = lstm_->quantized_w_h();
  const tensor::QTensorView& qmu = mu_head_->quantized_weight();
  const tensor::QTensorView& qsigma = sigma_head_->quantized_weight();
  // q8 weights under the opt-in int8 GEMM stay on GemmQuant, whose int8
  // core quantizes each call's activations by design. A quantized model
  // holds views for all four weights (LoadQuantizedCheckpoint sets them
  // together), so this mode multiplies every weight through its view.
  const bool int8 =
      lstm_->has_quantized_weights() && kernels::GemmQuantInt8Enabled() &&
      (qwx.dtype == tensor::DType::kQ8 || qwh.dtype == tensor::DType::kQ8 ||
       qmu.dtype == tensor::DType::kQ8 || qsigma.dtype == tensor::DType::kQ8);

  // Once per call: decode and pack W_x and W_h, interleave the two head
  // columns into one H x 2 operand [mu | sigma] (columns never mix in a
  // GEMM), and size every buffer, so the steps allocate nothing. Nothing is
  // cached on the model, so concurrent PredictSeeded calls share only
  // read-only weights.
  std::vector<double> wx_packed, wh_packed, head_w(2 * hd);
  if (!int8) {
    std::vector<double> image(std::max(kInputDim, hd) * gw);
    WeightImage(lstm_->w_x(), qwx, image.data());
    wx_packed.resize(kernels::PackedSize(kInputDim, gw));
    kernels::PackB(kInputDim, gw, image.data(), gw, wx_packed.data());
    WeightImage(lstm_->w_h(), qwh, image.data());
    wh_packed.resize(kernels::PackedSize(hd, gw));
    kernels::PackB(hd, gw, image.data(), gw, wh_packed.data());
    const nn::Dense* head_layers[2] = {mu_head_.get(), sigma_head_.get()};
    for (size_t col = 0; col < 2; ++col) {
      WeightImage(head_layers[col]->weight(),
                  head_layers[col]->quantized_weight(), image.data());
      for (size_t p = 0; p < hd; ++p) {
        head_w[2 * p + col] = image[p];
      }
    }
  }
  const double* bias = lstm_->bias().data();
  const double mu_bias = mu_head_->bias()(0, 0);
  const double sigma_bias = sigma_head_->bias()(0, 0);
  std::vector<double> x(rows * kInputDim), gates(rows * gw), hw(rows * gw);
  std::vector<double> heads(rows * 2);
  std::vector<double> h_enc(requests * hd), c_enc(requests * hd);
  std::vector<double> h_state(rows * hd), c_state(rows * hd);
  std::vector<double> draws(options_.horizon * rows);
  std::vector<double> scales(requests);
  for (size_t r = 0; r < requests; ++r) {
    scales[r] = WindowScale(inputs[r].context);
  }

  // One LSTM step over the first m rows of x, updating (hs, cs) in place:
  // both GEMMs on the shape-only GemmRowGrain partition, then the cell
  // kernel adds x*W_x, h*W_h and the bias in registers.
  auto lstm_step = [&](size_t m, double* hs, double* cs) {
    std::fill_n(gates.data(), m * gw, 0.0);
    std::fill_n(hw.data(), m * gw, 0.0);
    if (int8) {
      kernels::GemmQuant(level, m, gw, kInputDim, x.data(), kInputDim,
                         qwx.dtype, qwx.payload, gates.data(), gw);
      kernels::GemmQuant(level, m, gw, hd, hs, hd, qwh.dtype, qwh.payload,
                         hw.data(), gw);
    } else {
      ParallelFor(0, m, kernels::GemmRowGrain(m, gw, kInputDim),
                  [&](size_t r0, size_t r1) {
                    kernels::GemmPackedRows(level, r0, r1, gw, kInputDim,
                                            x.data(), kInputDim,
                                            wx_packed.data(), gates.data(),
                                            gw);
                  });
      ParallelFor(0, m, kernels::GemmRowGrain(m, gw, hd),
                  [&](size_t r0, size_t r1) {
                    kernels::GemmPackedRows(level, r0, r1, gw, hd, hs, hd,
                                            wh_packed.data(), hw.data(), gw);
                  });
    }
    kernels::LstmCellForward(level, m, hd, gates.data(), hw.data(), bias, cs,
                             hd, hs, hd, cs, hd, /*tanh_c=*/nullptr);
  };

  // Encode the observed contexts, one row per request. Rows of a step are
  // independent, so row r equals a batch-of-1 encode of request r.
  for (size_t t = 1; t < options_.context_length; ++t) {
    for (size_t r = 0; r < requests; ++r) {
      double* xr = x.data() + r * kInputDim;
      xr[0] = inputs[r].context[t - 1] / scales[r];
      const auto tf =
          TimeFeatures(inputs[r].start_index + t, inputs[r].step_minutes);
      std::copy(tf.begin(), tf.end(), xr + 1);
    }
    lstm_step(requests, h_enc.data(), c_enc.data());
  }

  // Ancestral sampling: request r owns rows [r*S, (r+1)*S), each starting
  // from the request's encoded state and its last observed value. Each
  // sampled value is fed back as the row's next input.
  for (size_t r = 0; r < requests; ++r) {
    for (size_t s = 0; s < num_samples; ++s) {
      const size_t row = r * num_samples + s;
      std::copy_n(h_enc.data() + r * hd, hd, h_state.data() + row * hd);
      std::copy_n(c_enc.data() + r * hd, hd, c_state.data() + row * hd);
      x[row * kInputDim] = inputs[r].context.back() / scales[r];
    }
  }
  for (size_t step = 0; step < options_.horizon; ++step) {
    for (size_t r = 0; r < requests; ++r) {
      const auto tf = TimeFeatures(inputs[r].forecast_start() + step,
                                   inputs[r].step_minutes);
      for (size_t s = 0; s < num_samples; ++s) {
        std::copy(tf.begin(), tf.end(),
                  x.data() + (r * num_samples + s) * kInputDim + 1);
      }
    }
    lstm_step(rows, h_state.data(), c_state.data());
    std::fill(heads.begin(), heads.end(), 0.0);
    if (int8) {
      kernels::GemmQuant(level, rows, 1, hd, h_state.data(), hd, qmu.dtype,
                         qmu.payload, heads.data(), 2);
      kernels::GemmQuant(level, rows, 1, hd, h_state.data(), hd,
                         qsigma.dtype, qsigma.payload, heads.data() + 1, 2);
    } else {
      kernels::Gemm(level, rows, 2, hd, h_state.data(), hd, head_w.data(), 2,
                    heads.data(), 2);
    }
    double* out = draws.data() + step * rows;
    for (size_t r = 0; r < requests; ++r) {
      for (size_t s = 0; s < num_samples; ++s) {
        const size_t row = r * num_samples + s;
        const double mu = heads[2 * row] + mu_bias;
        const double sigma =
            SoftplusScalar(heads[2 * row + 1] + sigma_bias) +
            options_.min_sigma;
        double draw;
        if (options_.head == Head::kStudentT) {
          draw = mu + sigma * rngs[r].StudentT(options_.student_t_dof);
        } else {
          draw = mu + sigma * rngs[r].Normal();
        }
        out[row] = draw * scales[r];
        x[row * kInputDim] = draw;
      }
    }
  }
  return draws;
}

Result<std::vector<std::vector<double>>> DeepArForecaster::SampleTrajectories(
    const ForecastInput& input, size_t num_samples) const {
  RPAS_RETURN_IF_ERROR(CheckInput(input));
  const std::vector<double> draws =
      SampleRoll(&input, &sample_rng_, 1, num_samples);
  std::vector<std::vector<double>> trajectories(
      num_samples, std::vector<double>(options_.horizon));
  for (size_t step = 0; step < options_.horizon; ++step) {
    for (size_t s = 0; s < num_samples; ++s) {
      trajectories[s][step] = draws[step * num_samples + s];
    }
  }
  return trajectories;
}

ts::QuantileForecast DeepArForecaster::ReduceToQuantiles(
    const double* draws, size_t stride, size_t samples) const {
  std::vector<std::vector<double>> values(options_.horizon);
  std::vector<double> sorted(samples);
  for (size_t step = 0; step < options_.horizon; ++step) {
    std::copy_n(draws + step * stride, samples, sorted.begin());
    std::sort(sorted.begin(), sorted.end());
    values[step].reserve(options_.levels.size());
    for (double tau : options_.levels) {
      values[step].push_back(dist::SortedQuantile(sorted.data(), samples, tau));
    }
  }
  ts::QuantileForecast forecast(options_.levels, std::move(values));
  forecast.SortQuantilesPerStep();
  return forecast;
}

Result<ts::QuantileForecast> DeepArForecaster::Predict(
    const ForecastInput& input) const {
  RPAS_RETURN_IF_ERROR(CheckInput(input));
  const size_t samples = options_.num_samples;
  const std::vector<double> draws =
      SampleRoll(&input, &sample_rng_, 1, samples);
  return ReduceToQuantiles(draws.data(), samples, samples);
}

Result<ts::QuantileForecast> DeepArForecaster::PredictSeeded(
    const ForecastInput& input, uint64_t seed) const {
  RPAS_RETURN_IF_ERROR(CheckInput(input));
  Rng rng = SamplingRng(seed);
  const size_t samples = options_.num_samples;
  const std::vector<double> draws = SampleRoll(&input, &rng, 1, samples);
  return ReduceToQuantiles(draws.data(), samples, samples);
}

Result<std::vector<ts::QuantileForecast>> DeepArForecaster::PredictBatch(
    const std::vector<ForecastInput>& inputs,
    const std::vector<uint64_t>& seeds) const {
  if (inputs.size() != seeds.size()) {
    return Status::InvalidArgument(
        "DeepAR: inputs and seeds must have equal length");
  }
  if (inputs.empty()) {
    return std::vector<ts::QuantileForecast>{};
  }
  for (const ForecastInput& input : inputs) {
    RPAS_RETURN_IF_ERROR(CheckInput(input));
  }
  // Each request draws from its own seed-derived generator in the order
  // PredictSeeded uses, so element i is bit-identical to
  // PredictSeeded(inputs[i], seeds[i]).
  std::vector<Rng> rngs;
  rngs.reserve(inputs.size());
  for (uint64_t seed : seeds) {
    rngs.push_back(SamplingRng(seed));
  }
  const size_t samples = options_.num_samples;
  const size_t rows = inputs.size() * samples;
  const std::vector<double> draws =
      SampleRoll(inputs.data(), rngs.data(), inputs.size(), samples);
  std::vector<ts::QuantileForecast> out;
  out.reserve(inputs.size());
  for (size_t r = 0; r < inputs.size(); ++r) {
    out.push_back(ReduceToQuantiles(draws.data() + r * samples, rows,
                                    samples));
  }
  return out;
}

}  // namespace rpas::forecast
