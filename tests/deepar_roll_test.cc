// Pins DeepAR's fused sampling roll to the step-by-step arithmetic it
// replaced. The reference below rebuilds every trajectory from ops::MatMul,
// an explicit (xWx + hWh) + b loop, kernels::EwSigmoid/EwTanh and the scalar
// cell update, draws from the same seed-derived generators, and reduces
// with dist::Empirical; every prediction path must match it bit for bit at
// every SIMD level, at 1 and 4 threads, for fp64 and q8 weights, and for
// hidden sizes whose gate blocks fill the 4-wide vectors exactly (32, 20)
// or leave a masked tail (18).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "dist/empirical.h"
#include "forecast/deepar.h"
#include "forecast/time_features.h"
#include "nn/qcheckpoint.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace rpas::forecast {
namespace {

namespace kernels = ::rpas::tensor::kernels;
using tensor::Matrix;

constexpr size_t kContext = 10;
constexpr size_t kHorizon = 6;
// 3 x 80 stacked rows clear the parallel thresholds of both GEMMs and the
// cell kernel at every hidden size below, so 4 threads really fan out.
constexpr size_t kSamples = 80;
constexpr uint64_t kSamplingSalt = 0xD1CEu;

ts::TimeSeries Series(size_t n, uint64_t seed) {
  ts::TimeSeries s;
  s.step_minutes = 10.0;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * M_PI * static_cast<double>(i % 144) / 144.0;
    s.values.push_back(10.0 + 4.0 * std::sin(phase) + 0.4 * rng.Normal());
  }
  return s;
}

ForecastInput InputEndingAt(const ts::TimeSeries& s, size_t end) {
  ForecastInput input;
  input.start_index = end - kContext;
  input.step_minutes = s.step_minutes;
  input.context.assign(s.values.begin() + static_cast<long>(end - kContext),
                       s.values.begin() + static_cast<long>(end));
  return input;
}

DeepArForecaster::Options SmallOptions(size_t hidden) {
  DeepArForecaster::Options o;
  o.context_length = kContext;
  o.horizon = kHorizon;
  o.hidden_dim = hidden;
  o.batch_size = 4;
  o.num_samples = kSamples;
  o.train.steps = 4;
  o.levels = DefaultQuantileLevels();
  o.seed = 5 + hidden;
  return o;
}

/// The model's tensors in Save() order, decoded from the checkpoint to the
/// fp64 weights the old layers multiplied by: LSTM w_x, w_h, b, then
/// (weight, bias) for the mu and sigma heads.
struct RefModel {
  DeepArForecaster::Options options;
  Matrix wx, wh, b, w_mu, b_mu, w_sigma, b_sigma;
};

RefModel FromCheckpoint(const DeepArForecaster::Options& options,
                        const nn::QuantizedCheckpoint& ckpt) {
  RefModel ref;
  ref.options = options;
  Matrix* slots[] = {&ref.wx,   &ref.wh,      &ref.b,      &ref.w_mu,
                     &ref.b_mu, &ref.w_sigma, &ref.b_sigma};
  RPAS_CHECK(ckpt.num_tensors() == 7);
  for (size_t i = 0; i < 7; ++i) {
    RPAS_CHECK(tensor::DequantizeToMatrix(ckpt.tensor(i).view, slots[i]).ok());
  }
  return ref;
}

/// One LSTM step in the old shape: two GEMMs, the bias pass, then the
/// activations and the scalar cell update.
void RefStep(const RefModel& ref, const Matrix& x, Matrix* h, Matrix* c) {
  const size_t hd = ref.options.hidden_dim;
  const kernels::SimdLevel level = kernels::ActiveLevel();
  const Matrix xw = tensor::MatMul(x, ref.wx);
  const Matrix hw = tensor::MatMul(*h, ref.wh);
  for (size_t r = 0; r < x.rows(); ++r) {
    std::vector<double> pre(4 * hd);
    for (size_t col = 0; col < 4 * hd; ++col) {
      pre[col] = (xw(r, col) + hw(r, col)) + ref.b(0, col);
    }
    std::vector<double> i(hd), f(hd), g(hd), o(hd), cn(hd), tc(hd);
    kernels::EwSigmoid(level, hd, pre.data(), i.data());
    kernels::EwSigmoid(level, hd, pre.data() + hd, f.data());
    kernels::EwTanh(level, hd, pre.data() + 2 * hd, g.data());
    kernels::EwSigmoid(level, hd, pre.data() + 3 * hd, o.data());
    for (size_t j = 0; j < hd; ++j) {
      const double t1 = f[j] * (*c)(r, j);
      const double t2 = i[j] * g[j];
      cn[j] = t1 + t2;
    }
    kernels::EwTanh(level, hd, cn.data(), tc.data());
    for (size_t j = 0; j < hd; ++j) {
      (*c)(r, j) = cn[j];
      (*h)(r, j) = o[j] * tc[j];
    }
  }
}

double WindowScale(const std::vector<double>& context) {
  double mean_abs = 0.0;
  for (double v : context) {
    mean_abs += std::fabs(v);
  }
  mean_abs /= static_cast<double>(context.size());
  return std::max(mean_abs, 1e-6);
}

/// The pre-roll SampleWithRng: batch-of-1 encode, replicate, roll.
std::vector<std::vector<double>> RefTrajectories(const RefModel& ref,
                                                 const ForecastInput& input,
                                                 size_t samples, Rng* rng) {
  const DeepArForecaster::Options& o = ref.options;
  const size_t hd = o.hidden_dim;
  const size_t in_dim = 1 + kNumTimeFeatures;
  const double scale = WindowScale(input.context);
  Matrix h(1, hd), c(1, hd);
  for (size_t t = 1; t < o.context_length; ++t) {
    Matrix x(1, in_dim);
    x(0, 0) = input.context[t - 1] / scale;
    const auto tf = TimeFeatures(input.start_index + t, input.step_minutes);
    for (size_t j = 0; j < kNumTimeFeatures; ++j) {
      x(0, 1 + j) = tf[j];
    }
    RefStep(ref, x, &h, &c);
  }
  Matrix hs(samples, hd), cs(samples, hd);
  for (size_t r = 0; r < samples; ++r) {
    for (size_t j = 0; j < hd; ++j) {
      hs(r, j) = h(0, j);
      cs(r, j) = c(0, j);
    }
  }
  std::vector<std::vector<double>> out(samples,
                                       std::vector<double>(o.horizon));
  std::vector<double> prev(samples, input.context.back() / scale);
  for (size_t step = 0; step < o.horizon; ++step) {
    const auto tf =
        TimeFeatures(input.forecast_start() + step, input.step_minutes);
    Matrix x(samples, in_dim);
    for (size_t r = 0; r < samples; ++r) {
      x(r, 0) = prev[r];
      for (size_t j = 0; j < kNumTimeFeatures; ++j) {
        x(r, 1 + j) = tf[j];
      }
    }
    RefStep(ref, x, &hs, &cs);
    const Matrix mu = tensor::MatMul(hs, ref.w_mu);
    const Matrix sigma_raw = tensor::MatMul(hs, ref.w_sigma);
    for (size_t r = 0; r < samples; ++r) {
      double sp;
      const double raw = sigma_raw(r, 0) + ref.b_sigma(0, 0);
      kernels::EwSoftplus(kernels::SimdLevel::kScalar, 1, &raw, &sp);
      const double sigma = sp + o.min_sigma;
      const double draw = (mu(r, 0) + ref.b_mu(0, 0)) +
                          sigma * rng->StudentT(o.student_t_dof);
      out[r][step] = draw * scale;
      prev[r] = draw;
    }
  }
  return out;
}

ts::QuantileForecast RefQuantiles(
    const RefModel& ref, const std::vector<std::vector<double>>& paths) {
  std::vector<std::vector<double>> values(ref.options.horizon);
  for (size_t step = 0; step < ref.options.horizon; ++step) {
    std::vector<double> column;
    for (const std::vector<double>& path : paths) {
      column.push_back(path[step]);
    }
    const dist::Empirical empirical(column);
    for (double tau : ref.options.levels) {
      values[step].push_back(empirical.Quantile(tau));
    }
  }
  ts::QuantileForecast forecast(ref.options.levels, std::move(values));
  forecast.SortQuantilesPerStep();
  return forecast;
}

void ExpectSameForecast(const ts::QuantileForecast& want,
                        const ts::QuantileForecast& got,
                        const std::string& what) {
  ASSERT_EQ(want.Horizon(), got.Horizon()) << what;
  for (size_t h = 0; h < want.Horizon(); ++h) {
    for (size_t q = 0; q < want.Levels().size(); ++q) {
      ASSERT_EQ(want.ValueAtIndex(h, q), got.ValueAtIndex(h, q))
          << what << " step " << h << " level " << q;
    }
  }
}

class ThreadOverrideGuard {
 public:
  ~ThreadOverrideGuard() { SetRpasThreads(0); }
};

std::vector<kernels::SimdLevel> SupportedLevels() {
  std::vector<kernels::SimdLevel> levels = {kernels::SimdLevel::kScalar};
  for (kernels::SimdLevel l :
       {kernels::SimdLevel::kSse2, kernels::SimdLevel::kAvx2}) {
    if (kernels::LevelSupported(l)) {
      levels.push_back(l);
    }
  }
  return levels;
}

/// Runs every prediction path of a freshly loaded model against the
/// reference at every level and thread count. `make_model` returns a model
/// whose Predict stream is at its start.
void CheckAllPaths(
    const RefModel& ref,
    const std::function<std::unique_ptr<DeepArForecaster>()>& make_model,
    const std::string& tag) {
  const ts::TimeSeries s = Series(400, 17);
  const ForecastInput a = InputEndingAt(s, 150);
  const ForecastInput b = InputEndingAt(s, 233);
  const ForecastInput c = InputEndingAt(s, 301);
  ThreadOverrideGuard guard;
  for (kernels::SimdLevel level : SupportedLevels()) {
    kernels::ScopedSimdLevel scoped(level);
    for (int threads : {1, 4}) {
      SetRpasThreads(threads);
      const std::string what = tag + " " + kernels::LevelName(level) + " " +
                               std::to_string(threads) + " threads";
      std::unique_ptr<DeepArForecaster> model = make_model();

      // SampleTrajectories, then Predict, on the model's own stream.
      Rng stream(ref.options.seed ^ kSamplingSalt);
      auto paths = model->SampleTrajectories(a, 7);
      ASSERT_TRUE(paths.ok()) << what;
      const auto want_paths = RefTrajectories(ref, a, 7, &stream);
      for (size_t p = 0; p < want_paths.size(); ++p) {
        for (size_t h = 0; h < kHorizon; ++h) {
          ASSERT_EQ(want_paths[p][h], (*paths)[p][h])
              << what << " trajectory " << p << " step " << h;
        }
      }
      auto predicted = model->Predict(b);
      ASSERT_TRUE(predicted.ok()) << what;
      ExpectSameForecast(
          RefQuantiles(ref, RefTrajectories(ref, b, kSamples, &stream)),
          *predicted, what + " Predict");

      // PredictSeeded, and a mixed batch whose rows must not interact.
      auto seeded = model->PredictSeeded(c, 77);
      ASSERT_TRUE(seeded.ok()) << what;
      Rng seeded_rng(DeriveSeed(77, kSamplingSalt));
      ExpectSameForecast(
          RefQuantiles(ref, RefTrajectories(ref, c, kSamples, &seeded_rng)),
          *seeded, what + " PredictSeeded");
      const std::vector<ForecastInput> inputs = {b, c, a};
      const std::vector<uint64_t> seeds = {3, 77, 1234};
      auto batch = model->PredictBatch(inputs, seeds);
      ASSERT_TRUE(batch.ok()) << what;
      for (size_t i = 0; i < inputs.size(); ++i) {
        Rng rng(DeriveSeed(seeds[i], kSamplingSalt));
        ExpectSameForecast(
            RefQuantiles(ref, RefTrajectories(ref, inputs[i], kSamples, &rng)),
            (*batch)[i], what + " PredictBatch[" + std::to_string(i) + "]");
      }
    }
  }
}

class DeepArRollTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DeepArRollTest, EveryPathMatchesStepByStepReference) {
  const size_t hidden = GetParam();
  const DeepArForecaster::Options options = SmallOptions(hidden);
  DeepArForecaster trained(options);
  ASSERT_TRUE(trained.Fit(Series(300, 3)).ok());
  const std::string base = "/tmp/rpas_deepar_roll_test_" +
                           std::to_string(static_cast<long>(getpid())) +
                           "_h" + std::to_string(hidden);
  const std::string saved = base + ".ckpt";
  ASSERT_TRUE(trained.SaveCheckpoint(saved).ok());

  // fp64: the trained parameters, read back exactly through an f64 rpasq.
  {
    const std::string f64 = base + ".f64.rpasq";
    ASSERT_TRUE(
        nn::QuantizeCheckpointFile(saved, f64, tensor::DType::kF64).ok());
    auto ckpt = nn::QuantizedCheckpoint::Map(f64);
    ASSERT_TRUE(ckpt.ok());
    const RefModel ref = FromCheckpoint(options, **ckpt);
    CheckAllPaths(
        ref,
        [&] {
          auto m = std::make_unique<DeepArForecaster>(options);
          RPAS_CHECK(m->LoadCheckpoint(saved).ok());
          return m;
        },
        "fp64 H=" + std::to_string(hidden));
    std::remove(f64.c_str());
  }

  // q8, served from the mapped checkpoint.
  const std::string q8 = base + ".q8.rpasq";
  ASSERT_TRUE(nn::QuantizeCheckpointFile(saved, q8, tensor::DType::kQ8).ok());
  auto ckpt = nn::QuantizedCheckpoint::Map(q8);
  ASSERT_TRUE(ckpt.ok());
  const RefModel ref = FromCheckpoint(options, **ckpt);
  CheckAllPaths(
      ref,
      [&] {
        auto m = std::make_unique<DeepArForecaster>(options);
        RPAS_CHECK(m->LoadQuantizedCheckpoint(*ckpt).ok());
        return m;
      },
      "q8 H=" + std::to_string(hidden));
  std::remove(q8.c_str());
  std::remove(saved.c_str());
}

INSTANTIATE_TEST_SUITE_P(HiddenSizes, DeepArRollTest,
                         ::testing::Values(32u, 20u, 18u));

}  // namespace
}  // namespace rpas::forecast
