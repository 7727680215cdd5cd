// Pins DeepAR's fused sampling roll to the step-by-step arithmetic it
// replaced. The reference below rebuilds every trajectory from ops::MatMul,
// an explicit (xWx + hWh) + b loop, kernels::EwSigmoid/EwTanh and the scalar
// cell update, draws from the same seed-derived generators, and reduces
// with dist::Empirical; every prediction path must match it bit for bit at
// every SIMD level, at 1 and 4 threads, for fp64 and q8 weights, and for
// hidden sizes whose gate blocks fill the 4-wide AVX2 vectors exactly (32,
// 20) or leave a masked tail (18, 7); only 32 fills avx512's 8-wide ones.
// At H = 7 the 4H = 28 gate columns also end in a 4-wide GEMM panel.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
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
// 3 x 80 stacked rows: thirty 8-row blocks of the LSTM step.
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

/// Bit patterns, so -0.0 and +0.0 differ.
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameForecast(const ts::QuantileForecast& want,
                        const ts::QuantileForecast& got,
                        const std::string& what) {
  ASSERT_EQ(want.Horizon(), got.Horizon()) << what;
  for (size_t h = 0; h < want.Horizon(); ++h) {
    for (size_t q = 0; q < want.Levels().size(); ++q) {
      ASSERT_EQ(Bits(want.ValueAtIndex(h, q)), Bits(got.ValueAtIndex(h, q)))
          << what << " step " << h << " level " << q << ": "
          << want.ValueAtIndex(h, q) << " vs " << got.ValueAtIndex(h, q);
    }
  }
}

class ThreadOverrideGuard {
 public:
  ~ThreadOverrideGuard() { SetRpasThreads(0); }
};

/// Runs every prediction path of a freshly loaded model against the
/// reference at every level and thread count: `trajectories` sampled
/// paths, then Predict, PredictSeeded and a 3-request PredictBatch at the
/// model's num_samples. `make_model` returns a model whose Predict stream
/// is at its start.
void CheckAllPaths(
    const RefModel& ref,
    const std::function<std::unique_ptr<DeepArForecaster>()>& make_model,
    const std::string& tag, size_t trajectories) {
  const ts::TimeSeries s = Series(400, 17);
  const ForecastInput a = InputEndingAt(s, 150);
  const ForecastInput b = InputEndingAt(s, 233);
  const ForecastInput c = InputEndingAt(s, 301);
  const size_t samples = ref.options.num_samples;
  ThreadOverrideGuard guard;
  for (kernels::SimdLevel level : kernels::SupportedLevels()) {
    kernels::ScopedSimdLevel scoped(level);
    for (int threads : {1, 4}) {
      SetRpasThreads(threads);
      const std::string what = tag + " " + kernels::LevelName(level) + " " +
                               std::to_string(threads) + " threads";
      std::unique_ptr<DeepArForecaster> model = make_model();

      // SampleTrajectories, then Predict, on the model's own stream.
      Rng stream(ref.options.seed ^ kSamplingSalt);
      auto paths = model->SampleTrajectories(a, trajectories);
      ASSERT_TRUE(paths.ok()) << what;
      const auto want_paths = RefTrajectories(ref, a, trajectories, &stream);
      for (size_t p = 0; p < want_paths.size(); ++p) {
        for (size_t h = 0; h < kHorizon; ++h) {
          ASSERT_EQ(Bits(want_paths[p][h]), Bits((*paths)[p][h]))
              << what << " trajectory " << p << " step " << h;
        }
      }
      auto predicted = model->Predict(b);
      ASSERT_TRUE(predicted.ok()) << what;
      ExpectSameForecast(
          RefQuantiles(ref, RefTrajectories(ref, b, samples, &stream)),
          *predicted, what + " Predict");

      // PredictSeeded, and a mixed batch whose rows must not interact.
      auto seeded = model->PredictSeeded(c, 77);
      ASSERT_TRUE(seeded.ok()) << what;
      Rng seeded_rng(DeriveSeed(77, kSamplingSalt));
      ExpectSameForecast(
          RefQuantiles(ref, RefTrajectories(ref, c, samples, &seeded_rng)),
          *seeded, what + " PredictSeeded");
      const std::vector<ForecastInput> inputs = {b, c, a};
      const std::vector<uint64_t> seeds = {3, 77, 1234};
      auto batch = model->PredictBatch(inputs, seeds);
      ASSERT_TRUE(batch.ok()) << what;
      for (size_t i = 0; i < inputs.size(); ++i) {
        Rng rng(DeriveSeed(seeds[i], kSamplingSalt));
        ExpectSameForecast(
            RefQuantiles(ref, RefTrajectories(ref, inputs[i], samples, &rng)),
            (*batch)[i], what + " PredictBatch[" + std::to_string(i) + "]");
      }
    }
  }
}

/// Checks every path of the fp64 restore of the checkpoint at `saved`
/// against the trained parameters, read back exactly through an f64 rpasq.
void CheckFp64Restore(const DeepArForecaster::Options& options,
                      const std::string& saved, const std::string& base,
                      const std::string& tag, size_t trajectories) {
  const std::string f64 = base + ".f64.rpasq";
  ASSERT_TRUE(nn::QuantizeCheckpointFile(saved, f64, tensor::DType::kF64).ok());
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
      "fp64 " + tag, trajectories);
  std::remove(f64.c_str());
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

  CheckFp64Restore(options, saved, base, "H=" + std::to_string(hidden), 7);

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
      "q8 H=" + std::to_string(hidden), 7);
  std::remove(q8.c_str());
  std::remove(saved.c_str());
}

INSTANTIATE_TEST_SUITE_P(HiddenSizes, DeepArRollTest,
                         ::testing::Values(32u, 20u, 18u, 7u));

/// Fits a model at `hidden` with `samples` draws per forecast and checks
/// every path of its fp64 restore, with `trajectories` sampled paths.
void CheckFittedModel(size_t hidden, size_t samples, size_t trajectories) {
  DeepArForecaster::Options options = SmallOptions(hidden);
  options.num_samples = samples;
  DeepArForecaster trained(options);
  ASSERT_TRUE(trained.Fit(Series(300, 3)).ok());
  const std::string base = "/tmp/rpas_deepar_roll_test_" +
                           std::to_string(static_cast<long>(getpid())) +
                           "_s" + std::to_string(samples) + "_h" +
                           std::to_string(hidden);
  const std::string saved = base + ".ckpt";
  ASSERT_TRUE(trained.SaveCheckpoint(saved).ok());
  CheckFp64Restore(options, saved, base,
                   "H=" + std::to_string(hidden) + " " +
                       std::to_string(samples) + " samples",
                   trajectories);
  std::remove(saved.c_str());
}

// The roll runs horizon step 0 on one row per request and copies it to the
// request's sample rows. A single sampled trajectory (one request, one
// row) and three requests of 16 samples (the fleet's per-request count)
// pin that copy to the reference at the serving model's H 20 and at H 12,
// whose last four cell columns run on ymm at avx512.
class DeepArRollSamplesTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DeepArRollSamplesTest, FirstStepOncePerRequestMatchesReference) {
  CheckFittedModel(GetParam(), 16, 1);
}

INSTANTIATE_TEST_SUITE_P(ServingShapes, DeepArRollSamplesTest,
                         ::testing::Values(20u, 12u));

// The quantile reduce sorts each step's samples with kernels::SortAscending.
// 100 samples (the loop's count) run the SIMD levels' network padded to
// 128; 129 run the scalar body at every level.
class DeepArRollSampleCountTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DeepArRollSampleCountTest, ReduceMatchesEmpiricalQuantiles) {
  CheckFittedModel(20, GetParam(), 7);
}

INSTANTIATE_TEST_SUITE_P(AroundSortNetworkCap, DeepArRollSampleCountTest,
                         ::testing::Values(100u, 129u));

// Draws that are zeros of both signs: with zero head weights, mu = +0 and
// sigma = softplus(-745) = the smallest subnormal (min_sigma 0), so a draw
// is +0 or a few subnormal steps of t's sign, and the context's scale of
// 0.3 rounds all but the larger ones to a zero that keeps the sign. The
// reduce's sort puts every -0.0 before every +0.0 where std::sort may mix
// them; every quantile's bits must still equal dist::Empirical's.
TEST(DeepArRollSignedZeroTest, QuantileBitsEqualEmpiricalWithZerosOfBothSigns) {
  DeepArForecaster::Options options = SmallOptions(20);
  options.min_sigma = 0.0;
  options.num_samples = 100;
  DeepArForecaster trained(options);
  ASSERT_TRUE(trained.Fit(Series(300, 3)).ok());
  const std::string base = "/tmp/rpas_deepar_roll_test_" +
                           std::to_string(static_cast<long>(getpid())) +
                           "_zeros";
  const std::string saved = base + ".ckpt";
  const std::string zeros = base + ".zeros.ckpt";
  ASSERT_TRUE(trained.SaveCheckpoint(saved).ok());
  auto ckpt = nn::QuantizedCheckpoint::Map(saved);
  ASSERT_TRUE(ckpt.ok());
  RefModel ref = FromCheckpoint(options, **ckpt);
  ref.w_mu.Fill(0.0);
  ref.b_mu.Fill(0.0);
  ref.w_sigma.Fill(0.0);
  ref.b_sigma.Fill(-745.0);
  const Matrix* slots[] = {&ref.wx,   &ref.wh,      &ref.b,      &ref.w_mu,
                           &ref.b_mu, &ref.w_sigma, &ref.b_sigma};
  std::vector<nn::QTensorSpec> specs;
  for (size_t i = 0; i < 7; ++i) {
    specs.push_back({(*ckpt)->tensor(i).name, tensor::DType::kF64, slots[i]});
  }
  ASSERT_TRUE(
      nn::WriteQuantizedCheckpoint(zeros, (*ckpt)->signature(), specs).ok());

  ForecastInput input;
  input.start_index = 40;
  input.step_minutes = 10.0;
  input.context.assign(kContext, 0.3);
  Rng probe_rng(DeriveSeed(77, kSamplingSalt));
  const auto paths = RefTrajectories(ref, input, options.num_samples,
                                     &probe_rng);
  size_t negative_zeros = 0, positive_zeros = 0, nonzero = 0;
  for (const std::vector<double>& path : paths) {
    for (double v : path) {
      if (v != 0.0) {
        ++nonzero;
      } else if (std::signbit(v)) {
        ++negative_zeros;
      } else {
        ++positive_zeros;
      }
    }
  }
  ASSERT_GT(negative_zeros, 0u);
  ASSERT_GT(positive_zeros, 0u);
  ASSERT_GT(nonzero, 0u);

  ThreadOverrideGuard guard;
  for (kernels::SimdLevel level : kernels::SupportedLevels()) {
    kernels::ScopedSimdLevel scoped(level);
    DeepArForecaster model(options);
    ASSERT_TRUE(model.LoadCheckpoint(zeros).ok());
    auto seeded = model.PredictSeeded(input, 77);
    ASSERT_TRUE(seeded.ok());
    Rng rng(DeriveSeed(77, kSamplingSalt));
    ExpectSameForecast(
        RefQuantiles(ref, RefTrajectories(ref, input, options.num_samples,
                                          &rng)),
        *seeded, std::string("signed zeros ") + kernels::LevelName(level));
  }
  std::remove(zeros.c_str());
  std::remove(saved.c_str());
}

}  // namespace
}  // namespace rpas::forecast
