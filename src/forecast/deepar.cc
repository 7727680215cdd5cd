#include "forecast/deepar.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "dist/empirical.h"
#include "nn/losses.h"
#include "nn/qcheckpoint.h"
#include "tensor/kernels.h"
#include "ts/window.h"

namespace rpas::forecast {

using tensor::Matrix;
namespace kernels = ::rpas::tensor::kernels;

namespace {
constexpr double kScaleEps = 1e-6;

double SoftplusScalar(double x) {
  return (x > 0.0 ? x : 0.0) + std::log1p(std::exp(-std::fabs(x)));
}

/// d softplus / dx = sigmoid(x), in the sign-split form of the tape's
/// Softplus backward.
double SoftplusSlope(double x) {
  return x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                  : std::exp(x) / (1.0 + std::exp(x));
}

/// Adds x·W_x into `gates` and h·W_h into `hw` over `m` rows (x is
/// m x in_dim, h is m x hd, both outputs m x 4hd) through weights packed by
/// kernels::PackB, on the shape-only GemmRowGrain partition that Gemm uses.
void PackedGateProducts(kernels::SimdLevel level, size_t m, size_t in_dim,
                        size_t hd, const double* x, const double* wx_packed,
                        const double* h, const double* wh_packed,
                        double* gates, double* hw) {
  const size_t gw = 4 * hd;
  ParallelFor(0, m, kernels::GemmRowGrain(m, gw, in_dim),
              [&](size_t r0, size_t r1) {
                kernels::GemmPackedRows(level, r0, r1, gw, in_dim, x, in_dim,
                                        wx_packed, gates, gw);
              });
  ParallelFor(0, m, kernels::GemmRowGrain(m, gw, hd),
              [&](size_t r0, size_t r1) {
                kernels::GemmPackedRows(level, r0, r1, gw, hd, h, hd,
                                        wh_packed, hw, gw);
              });
}

/// Forward values of one (step, row) NLL term that its gradient reads.
struct HeadTerm {
  double pre;    ///< sigma head output before softplus
  double sigma;  ///< softplus(pre) + min_sigma
  double d;      ///< y - mu
  double z;      ///< d / sigma
  double ap;     ///< z^2 / dof + 1 (Student-t head only)
};

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
  RPAS_CHECK(options_.num_samples >= 2 && options_.batch_size > 0);
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

Status DeepArForecaster::SaveCheckpoint(const std::string& path) const {
  if (!fitted_) {
    return Status::FailedPrecondition(
        "DeepAR: cannot save an unfitted model");
  }
  return nn::SaveParameters(path, Signature(), AllParams());
}

Status DeepArForecaster::LoadCheckpoint(const std::string& path) {
  // Restore into fresh layers and commit them only on success, so a failed
  // load leaves the served weights untouched.
  DeepArForecaster staged(options_);
  staged.BuildModel();
  RPAS_RETURN_IF_ERROR(
      nn::LoadParameters(path, Signature(), staged.AllParams()));
  CommitStaged(&staged, nullptr);
  return Status::OK();
}

Status DeepArForecaster::LoadQuantizedCheckpoint(
    std::shared_ptr<const nn::QuantizedCheckpoint> checkpoint) {
  if (checkpoint == nullptr) {
    return Status::InvalidArgument("DeepAR: null quantized checkpoint");
  }
  // Staged like LoadCheckpoint. Tensor order is AllParams(): lstm (w_x, w_h,
  // b), then (weight, bias) for each head.
  DeepArForecaster staged(options_);
  staged.BuildModel();
  RPAS_RETURN_IF_ERROR(
      nn::CheckLayout(*checkpoint, Signature(), staged.AllParams()));
  RPAS_RETURN_IF_ERROR(staged.lstm_->SetQuantizedWeights(
      checkpoint->tensor(0).view, checkpoint->tensor(1).view));
  RPAS_RETURN_IF_ERROR(nn::AssignDequantized(checkpoint->tensor(2),
                                             staged.lstm_->Params()[2]));
  size_t idx = 3;
  for (nn::Dense* head : {staged.mu_head_.get(), staged.sigma_head_.get()}) {
    RPAS_RETURN_IF_ERROR(
        head->SetQuantizedWeights(checkpoint->tensor(idx++).view));
    RPAS_RETURN_IF_ERROR(
        nn::AssignDequantized(checkpoint->tensor(idx++), head->Params()[1]));
  }
  CommitStaged(&staged, std::move(checkpoint));
  return Status::OK();
}

void DeepArForecaster::CommitStaged(
    DeepArForecaster* staged,
    std::shared_ptr<const nn::QuantizedCheckpoint> checkpoint) {
  lstm_ = std::move(staged->lstm_);
  mu_head_ = std::move(staged->mu_head_);
  sigma_head_ = std::move(staged->sigma_head_);
  qckpt_ = std::move(checkpoint);
  fitted_ = true;
}

nn::TrainSummary DeepArForecaster::RunTraining(
    const ts::WindowDataset& dataset, double step_minutes,
    const nn::TrainConfig& config) {
  const size_t t_len = options_.context_length;
  const size_t hd = options_.hidden_dim;
  const size_t gw = 4 * hd;  // gate columns
  const size_t total = t_len + options_.horizon;
  // Unroll step s feeds the observed value s and predicts value s + 1.
  const size_t unroll = total - 1;
  // SampleIndices draws min(batch_size, windows) rows on every call.
  const size_t batch = std::min(options_.batch_size, dataset.size());
  const size_t bh = batch * hd;
  const size_t bg = batch * gw;
  const kernels::SimdLevel level = kernels::ActiveLevel();
  const bool student_t = options_.head == Head::kStudentT;
  // The constants the tape losses scale and shift by, formed the same way.
  const double inv_dof = 1.0 / options_.student_t_dof;
  const double half_dof1 = (options_.student_t_dof + 1.0) / 2.0;
  const double nll_constant =
      student_t ? nn::StudentTNllConstant(options_.student_t_dof)
                : nn::GaussianNllConstant();
  const double inv_batch = 1.0 / static_cast<double>(batch);
  const double inv_unroll = 1.0 / static_cast<double>(unroll);
  // d loss / d (one row's NLL term): the 1/unroll mean over steps, then the
  // 1/batch mean over rows.
  const double g_row = inv_batch * inv_unroll;

  // AllParams() order: LSTM w_x, w_h, b, then (weight, bias) of the mu and
  // sigma heads.
  const std::vector<autodiff::Parameter*> params = AllParams();
  autodiff::Parameter& wx = *params[0];
  autodiff::Parameter& wh = *params[1];
  autodiff::Parameter& bias = *params[2];
  autodiff::Parameter& w_mu = *params[3];
  autodiff::Parameter& b_mu = *params[4];
  autodiff::Parameter& w_sigma = *params[5];
  autodiff::Parameter& b_sigma = *params[6];

  // Calendar features depend only on the absolute index, so one table over
  // the dataset's span replaces a TimeFeatures call per row and step.
  size_t first = dataset[0].begin;
  size_t last = first;
  for (size_t i = 1; i < dataset.size(); ++i) {
    first = std::min(first, dataset[i].begin);
    last = std::max(last, dataset[i].begin);
  }
  std::vector<double> calendar((last - first + total) * kNumTimeFeatures);
  for (size_t i = 0; i < last - first + total; ++i) {
    const auto tf = TimeFeatures(first + i, step_minutes);
    std::copy(tf.begin(), tf.end(), calendar.begin() + i * kNumTimeFeatures);
  }

  // Every buffer is sized here, once per call, so no gradient step
  // allocates. The forward keeps each step's activations for the reverse
  // pass: x_s, the states h_s and c_s (index 0 is the zero state), the
  // activated gates, tanh(c), the two head outputs and each row's NLL term.
  std::vector<size_t> indices;
  indices.reserve(dataset.size());
  std::vector<double> series(batch * total);
  std::vector<double> wx_packed(kernels::PackedSize(kInputDim, gw));
  std::vector<double> wh_packed(kernels::PackedSize(hd, gw));
  std::vector<double> head_w(2 * hd);
  std::vector<double> x(unroll * batch * kInputDim);
  std::vector<double> h((unroll + 1) * bh), c((unroll + 1) * bh);
  std::vector<double> act(unroll * bg), tanh_c(unroll * bh), hw(bg);
  std::vector<double> heads(unroll * batch * 2), nll(batch);
  std::vector<HeadTerm> terms(unroll * batch);
  std::vector<double> dh(bh), dh_next(bh), dc(bh), dc_next(bh), dgates(bg);
  std::vector<double> dheads(batch * 2), head_grad(hd * 2), gate_sums(gw);
  std::vector<double> w_grad(std::max(kInputDim, hd) * gw);

  // Teacher-forced forward: at step s the input is the observed value s plus
  // the calendar features of s + 1, and the heads predict value s + 1. Every
  // product and rounding is the one the tape graph (LstmCell::Step, the
  // Dense heads, Softplus + min_sigma and the NLL composite) computed.
  auto forward = [&]() {
    kernels::PackB(kInputDim, gw, wx.value.data(), gw, wx_packed.data());
    kernels::PackB(hd, gw, wh.value.data(), gw, wh_packed.data());
    for (size_t p = 0; p < hd; ++p) {
      head_w[2 * p] = w_mu.value[p];
      head_w[2 * p + 1] = w_sigma.value[p];
    }
    double total_nll = 0.0;
    for (size_t s = 0; s < unroll; ++s) {
      const double* xs = x.data() + s * batch * kInputDim;
      const double* h_in = h.data() + s * bh;
      double* h_out = h.data() + (s + 1) * bh;
      double* gates = act.data() + s * bg;
      std::fill_n(gates, bg, 0.0);
      std::fill(hw.begin(), hw.end(), 0.0);
      PackedGateProducts(level, batch, kInputDim, hd, xs, wx_packed.data(),
                         h_in, wh_packed.data(), gates, hw.data());
      kernels::LstmCellForward(level, batch, hd, gates, hw.data(),
                               bias.value.data(), c.data() + s * bh, hd,
                               h_out, hd, c.data() + (s + 1) * bh, hd,
                               tanh_c.data() + s * bh);
      double* hs = heads.data() + s * batch * 2;
      std::fill_n(hs, batch * 2, 0.0);
      kernels::Gemm(level, batch, 2, hd, h_out, hd, head_w.data(), 2, hs, 2);
      for (size_t r = 0; r < batch; ++r) {
        HeadTerm& term = terms[s * batch + r];
        const double mu = hs[2 * r] + b_mu.value[0];
        term.pre = hs[2 * r + 1] + b_sigma.value[0];
        term.sigma = SoftplusScalar(term.pre) + options_.min_sigma;
        term.d = series[r * total + s + 1] - mu;
        term.z = term.d / term.sigma;
        const double sq = term.z * term.z;
        double spread;  // the z-dependent part of the NLL
        if (student_t) {
          term.ap = sq * inv_dof + 1.0;
          spread = std::log(term.ap) * half_dof1;
        } else {
          spread = sq * 0.5;
        }
        nll[r] = (std::log(term.sigma) + spread) + nll_constant;
      }
      const double step_nll =
          kernels::Sum(level, batch, nll.data()) * inv_batch;
      total_nll = s == 0 ? step_nll : total_nll + step_nll;
    }
    return total_nll * inv_unroll;
  };

  // Reverse pass in the tape's node order: steps from last to first, within
  // a step the NLL, the sigma head, the mu head, then the cell. Each step's
  // parameter products are summed from zero and then added to the gradients,
  // as the tape's AccumulateGrad did (DESIGN.md §10).
  auto backward = [&]() {
    std::fill(dh_next.begin(), dh_next.end(), 0.0);
    std::fill(dc_next.begin(), dc_next.end(), 0.0);
    for (size_t s = unroll; s-- > 0;) {
      const double* h_in = h.data() + s * bh;
      const double* h_out = h_in + bh;
      double db_mu = 0.0;
      double db_sigma = 0.0;
      for (size_t r = 0; r < batch; ++r) {
        const HeadTerm& term = terms[s * batch + r];
        double g_sq;  // d loss / d z^2
        if (student_t) {
          g_sq = inv_dof * ((half_dof1 * g_row) / term.ap);
        } else {
          g_sq = 0.5 * g_row;
        }
        const double g_z = (g_sq * term.z) * 2.0;
        const double g_sigma = g_row / term.sigma +
                               -(g_z * term.d) / (term.sigma * term.sigma);
        dheads[2 * r] = -(g_z / term.sigma);
        dheads[2 * r + 1] = g_sigma * SoftplusSlope(term.pre);
        db_sigma += dheads[2 * r + 1];
        db_mu += dheads[2 * r];
      }
      b_sigma.grad[0] += db_sigma;
      b_mu.grad[0] += db_mu;
      // Both heads' weight gradients in one 2-column product; its columns
      // never mix, so each equals the tape's 1-column h^T g.
      std::fill(head_grad.begin(), head_grad.end(), 0.0);
      kernels::GemmTN(level, hd, 2, batch, h_out, hd, dheads.data(), 2,
                      head_grad.data(), 2);
      for (size_t p = 0; p < hd; ++p) {
        w_mu.grad[p] += head_grad[2 * p];
        w_sigma.grad[p] += head_grad[2 * p + 1];
      }
      // d loss / d h_{s+1}: the next step's dh_prev, then the sigma head's
      // and the mu head's 1-term products, in that order.
      for (size_t r = 0; r < batch; ++r) {
        for (size_t j = 0; j < hd; ++j) {
          dh[r * hd + j] = (dh_next[r * hd + j] +
                            dheads[2 * r + 1] * w_sigma.value[j]) +
                           dheads[2 * r] * w_mu.value[j];
        }
      }
      kernels::LstmCellBackward(level, batch, hd, act.data() + s * bg,
                                c.data() + s * bh, hd, tanh_c.data() + s * bh,
                                dh.data(), hd, dc_next.data(), hd,
                                dgates.data(), dc.data());
      std::swap(dc, dc_next);
      std::fill(gate_sums.begin(), gate_sums.end(), 0.0);
      for (size_t r = 0; r < batch; ++r) {
        for (size_t col = 0; col < gw; ++col) {
          gate_sums[col] += dgates[r * gw + col];
        }
      }
      kernels::Axpy(level, gw, 1.0, gate_sums.data(), bias.grad.data());
      if (s > 0) {  // h_0 is the zero state: no gradient flows into it
        std::fill(dh_next.begin(), dh_next.end(), 0.0);
        kernels::GemmNT(level, batch, hd, gw, dgates.data(), gw,
                        wh.value.data(), gw, dh_next.data(), hd);
      }
      std::fill_n(w_grad.data(), hd * gw, 0.0);
      kernels::GemmTN(level, hd, gw, batch, h_in, hd, dgates.data(), gw,
                      w_grad.data(), gw);
      kernels::Axpy(level, hd * gw, 1.0, w_grad.data(), wh.grad.data());
      std::fill_n(w_grad.data(), kInputDim * gw, 0.0);
      kernels::GemmTN(level, kInputDim, gw, batch,
                      x.data() + s * batch * kInputDim, kInputDim,
                      dgates.data(), gw, w_grad.data(), gw);
      kernels::Axpy(level, kInputDim * gw, 1.0, w_grad.data(),
                    wx.grad.data());
    }
  };

  return nn::TrainLoop(config, params, [&](Rng* rng) {
    dataset.SampleIndices(options_.batch_size, rng, &indices);
    for (size_t r = 0; r < batch; ++r) {
      const ts::Window& w = dataset[indices[r]];
      const double scale = WindowScale(w.context);
      double* row = series.data() + r * total;
      for (size_t i = 0; i < t_len; ++i) {
        row[i] = w.context[i] / scale;
      }
      for (size_t i = t_len; i < total; ++i) {
        row[i] = w.target[i - t_len] / scale;
      }
      const double* features =
          calendar.data() + (w.begin - first + 1) * kNumTimeFeatures;
      for (size_t s = 0; s < unroll; ++s) {
        double* xr = x.data() + (s * batch + r) * kInputDim;
        xr[0] = row[s];
        std::copy_n(features + s * kNumTimeFeatures, kNumTimeFeatures,
                    xr + 1);
      }
    }
    const double loss = forward();
    backward();
    return loss;
  });
}

Status DeepArForecaster::Fit(const ts::TimeSeries& train) {
  RPAS_RETURN_IF_ERROR(nn::ValidateTrainConfig(options_.train));
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

  // Once per call: decode and pack W_x and W_h, interleave the two head
  // columns into one H x 2 operand [mu | sigma] (columns never mix in a
  // GEMM), and size every buffer, so the steps allocate nothing. Nothing is
  // cached on the model, so concurrent PredictSeeded calls share only
  // read-only weights. The decoded image is freed before the step buffers
  // are sized.
  std::vector<double> wx_packed, wh_packed, head_w(2 * hd);
  {
    std::vector<double> image(std::max(kInputDim, hd) * gw);
    WeightImage(lstm_->w_x(), lstm_->quantized_w_x(), image.data());
    wx_packed.resize(kernels::PackedSize(kInputDim, gw));
    kernels::PackB(kInputDim, gw, image.data(), gw, wx_packed.data());
    WeightImage(lstm_->w_h(), lstm_->quantized_w_h(), image.data());
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
    PackedGateProducts(level, m, kInputDim, hd, x.data(), wx_packed.data(),
                       hs, wh_packed.data(), gates.data(), hw.data());
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
    kernels::Gemm(level, rows, 2, hd, h_state.data(), hd, head_w.data(), 2,
                  heads.data(), 2);
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
