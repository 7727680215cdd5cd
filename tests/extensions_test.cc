// Tests for the library extensions beyond the paper's core experiments:
// Holt-Winters forecaster, model checkpointing, the online auto-scaling
// loop, and multi-resource allocation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/multi_resource.h"
#include "core/online_loop.h"
#include "forecast/deepar.h"
#include "forecast/holt_winters.h"
#include "forecast/mlp.h"
#include "forecast/seasonal_naive.h"
#include "forecast/tft.h"
#include "nn/qcheckpoint.h"
#include "obs/metrics.h"
#include "trace/generator.h"
#include "ts/metrics.h"

namespace rpas {
namespace {

constexpr size_t kDay = 144;

ts::TimeSeries SineSeries(size_t num_steps, double noise, uint64_t seed) {
  ts::TimeSeries s;
  s.step_minutes = 10.0;
  Rng rng(seed);
  for (size_t i = 0; i < num_steps; ++i) {
    const double phase = 2.0 * M_PI * static_cast<double>(i % kDay) /
                         static_cast<double>(kDay);
    s.values.push_back(10.0 + 4.0 * std::sin(phase) + noise * rng.Normal());
  }
  return s;
}

// ------------------------------------------------------------ HoltWinters ---

TEST(HoltWintersTest, NailsCleanSeasonalSeries) {
  ts::TimeSeries s = SineSeries(8 * kDay, /*noise=*/0.05, 1);
  forecast::HoltWintersForecaster::Options options;
  options.context_length = 2 * kDay;
  options.horizon = 72;
  options.season = kDay;
  forecast::HoltWintersForecaster model(options);
  auto [train, test] = s.SplitTail(kDay);
  ASSERT_TRUE(model.Fit(train).ok());

  auto rolled = forecast::RollForecasts(model, train, test, 72);
  ASSERT_TRUE(rolled.ok());
  auto report =
      ts::EvaluateForecasts(rolled->forecasts, rolled->actuals, {0.5});
  // Signal variance is 8; HW should be near the noise floor.
  EXPECT_LT(report.mse, 0.5);
}

TEST(HoltWintersTest, TracksLevelShift) {
  // Seasonal series whose level jumps halfway: the smoother must adapt.
  ts::TimeSeries s = SineSeries(8 * kDay, 0.05, 2);
  for (size_t i = 4 * kDay; i < s.size(); ++i) {
    s.values[i] += 5.0;
  }
  forecast::HoltWintersForecaster::Options options;
  options.context_length = 2 * kDay;
  options.horizon = 36;
  options.season = kDay;
  forecast::HoltWintersForecaster model(options);
  ASSERT_TRUE(model.Fit(s.Slice(0, 7 * kDay)).ok());
  forecast::ForecastInput input;
  input.start_index = 7 * kDay - 2 * kDay;
  input.step_minutes = 10.0;
  input.context.assign(
      s.values.begin() + static_cast<long>(5 * kDay),
      s.values.begin() + static_cast<long>(7 * kDay));
  auto fc = model.Predict(input);
  ASSERT_TRUE(fc.ok());
  // Median forecast should live at the shifted level (15 +- amplitude).
  const double median0 = fc->Value(0, 0.5);
  EXPECT_GT(median0, 9.0);
}

TEST(HoltWintersTest, IntervalsWidenWithHorizon) {
  ts::TimeSeries s = SineSeries(8 * kDay, 1.0, 3);
  forecast::HoltWintersForecaster::Options options;
  options.context_length = 2 * kDay;
  options.horizon = 72;
  options.season = kDay;
  forecast::HoltWintersForecaster model(options);
  ASSERT_TRUE(model.Fit(s).ok());
  forecast::ForecastInput input;
  input.start_index = s.size() - 2 * kDay;
  input.step_minutes = 10.0;
  input.context.assign(s.values.end() - 2 * kDay, s.values.end());
  auto fc = model.Predict(input);
  ASSERT_TRUE(fc.ok());
  const double early = fc->Value(0, 0.9) - fc->Value(0, 0.1);
  const double late = fc->Value(71, 0.9) - fc->Value(71, 0.1);
  EXPECT_GT(late, early);
}

TEST(HoltWintersTest, RejectsShortTrainOrContext) {
  forecast::HoltWintersForecaster::Options options;
  options.season = kDay;
  forecast::HoltWintersForecaster model(options);
  ts::TimeSeries tiny = SineSeries(kDay, 0.1, 4);
  EXPECT_FALSE(model.Fit(tiny).ok());
  ASSERT_TRUE(model.Fit(SineSeries(6 * kDay, 0.1, 5)).ok());
  forecast::ForecastInput input;
  input.context.assign(10, 1.0);
  EXPECT_FALSE(model.Predict(input).ok());
}

TEST(HoltWintersTest, GridSearchPicksFromGrid) {
  ts::TimeSeries s = SineSeries(6 * kDay, 0.3, 6);
  forecast::HoltWintersForecaster::Options options;
  options.season = kDay;
  forecast::HoltWintersForecaster model(options);
  ASSERT_TRUE(model.Fit(s).ok());
  auto contains = [](const std::vector<double>& grid, double v) {
    for (double g : grid) {
      if (g == v) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(contains(options.alpha_grid, model.alpha()));
  EXPECT_TRUE(contains(options.beta_grid, model.beta()));
  EXPECT_TRUE(contains(options.gamma_grid, model.gamma()));
  EXPECT_GT(model.residual_stddev(), 0.0);
}

// ------------------------------------------------------------- Checkpoint ---

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rpas_ckpt_" + std::to_string(::getpid()) + ".rpasq");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path() const { return path_.string(); }
  std::filesystem::path path_;
};

TEST_F(CheckpointTest, RawRoundTrip) {
  Rng rng(7);
  autodiff::Parameter a(tensor::Matrix(3, 4));
  autodiff::Parameter b(tensor::Matrix(1, 2));
  for (size_t i = 0; i < a.value.size(); ++i) {
    a.value[i] = rng.Normal();
  }
  b.value(0, 0) = 1.5;
  b.value(0, 1) = -2.25;
  ASSERT_TRUE(nn::SaveParameters(path(), "sig", {&a, &b}).ok());

  autodiff::Parameter a2(tensor::Matrix(3, 4));
  autodiff::Parameter b2(tensor::Matrix(1, 2));
  ASSERT_TRUE(nn::LoadParameters(path(), "sig", {&a2, &b2}).ok());
  for (size_t i = 0; i < a.value.size(); ++i) {
    EXPECT_DOUBLE_EQ(a2.value[i], a.value[i]);
  }
  EXPECT_DOUBLE_EQ(b2.value(0, 1), -2.25);
}

TEST_F(CheckpointTest, SignatureMismatchRejected) {
  autodiff::Parameter a(tensor::Matrix(1, 1));
  ASSERT_TRUE(nn::SaveParameters(path(), "model-v1", {&a}).ok());
  EXPECT_EQ(nn::LoadParameters(path(), "model-v2", {&a}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, ShapeMismatchRejected) {
  autodiff::Parameter a(tensor::Matrix(2, 2));
  ASSERT_TRUE(nn::SaveParameters(path(), "sig", {&a}).ok());
  autodiff::Parameter wrong(tensor::Matrix(2, 3));
  EXPECT_EQ(nn::LoadParameters(path(), "sig", {&wrong}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, CountMismatchRejected) {
  autodiff::Parameter a(tensor::Matrix(1, 1));
  ASSERT_TRUE(nn::SaveParameters(path(), "sig", {&a}).ok());
  autodiff::Parameter b(tensor::Matrix(1, 1));
  EXPECT_EQ(nn::LoadParameters(path(), "sig", {&a, &b}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, MissingFileIsIoError) {
  autodiff::Parameter a(tensor::Matrix(1, 1));
  EXPECT_EQ(nn::LoadParameters("/nonexistent/ckpt", "sig", {&a}).code(),
            StatusCode::kIoError);
}

TEST_F(CheckpointTest, TftSaveLoadPreservesPredictions) {
  ts::TimeSeries s = SineSeries(3 * kDay, 0.3, 8);
  forecast::TftForecaster::Options options;
  options.context_length = 36;
  options.horizon = 12;
  options.d_model = 8;
  options.batch_size = 2;
  options.train.steps = 60;
  options.levels = {0.1, 0.5, 0.9};
  forecast::TftForecaster original(options);
  ASSERT_TRUE(original.Fit(s).ok());
  ASSERT_TRUE(original.SaveCheckpoint(path()).ok());

  forecast::TftForecaster restored(options);
  ASSERT_TRUE(restored.LoadCheckpoint(path()).ok());

  forecast::ForecastInput input;
  input.start_index = s.size() - 36;
  input.step_minutes = 10.0;
  input.context.assign(s.values.end() - 36, s.values.end());
  auto fc1 = original.Predict(input);
  auto fc2 = restored.Predict(input);
  ASSERT_TRUE(fc1.ok() && fc2.ok());
  for (size_t h = 0; h < 12; ++h) {
    for (size_t q = 0; q < 3; ++q) {
      EXPECT_DOUBLE_EQ(fc1->ValueAtIndex(h, q), fc2->ValueAtIndex(h, q));
    }
  }
}

TEST_F(CheckpointTest, TftRejectsDifferentArchitecture) {
  ts::TimeSeries s = SineSeries(3 * kDay, 0.3, 9);
  forecast::TftForecaster::Options options;
  options.context_length = 36;
  options.horizon = 12;
  options.d_model = 8;
  options.batch_size = 2;
  options.train.steps = 30;
  options.levels = {0.1, 0.5, 0.9};
  forecast::TftForecaster original(options);
  ASSERT_TRUE(original.Fit(s).ok());
  ASSERT_TRUE(original.SaveCheckpoint(path()).ok());

  options.d_model = 16;  // different architecture
  forecast::TftForecaster other(options);
  EXPECT_FALSE(other.LoadCheckpoint(path()).ok());
}

TEST_F(CheckpointTest, MlpSaveLoadPreservesScalerAndWeights) {
  ts::TimeSeries s = SineSeries(3 * kDay, 0.3, 10);
  forecast::MlpForecaster::Options options;
  options.context_length = 36;
  options.horizon = 12;
  options.hidden_dim = 16;
  options.train.steps = 60;
  forecast::MlpForecaster original(options);
  ASSERT_TRUE(original.Fit(s).ok());
  ASSERT_TRUE(original.SaveCheckpoint(path()).ok());

  forecast::MlpForecaster restored(options);
  ASSERT_TRUE(restored.LoadCheckpoint(path()).ok());
  forecast::ForecastInput input;
  input.start_index = s.size() - 36;
  input.step_minutes = 10.0;
  input.context.assign(s.values.end() - 36, s.values.end());
  auto d1 = original.PredictDistribution(input);
  auto d2 = restored.PredictDistribution(input);
  ASSERT_TRUE(d1.ok() && d2.ok());
  for (size_t h = 0; h < 12; ++h) {
    EXPECT_DOUBLE_EQ(d1->mean[h], d2->mean[h]);
    EXPECT_DOUBLE_EQ(d1->stddev[h], d2->stddev[h]);
  }
}

TEST_F(CheckpointTest, DeepArSaveLoadGivesBitIdenticalForecast) {
  ts::TimeSeries s = SineSeries(3 * kDay, 0.3, 12);
  forecast::DeepArForecaster::Options options;
  options.context_length = 36;
  options.horizon = 12;
  options.hidden_dim = 8;
  options.batch_size = 4;
  options.num_samples = 25;
  options.train.steps = 40;
  options.levels = {0.1, 0.5, 0.9};
  // Train through an explicitly disabled registry: the metrics-off fast
  // path must leave the forecast untouched and record nothing.
  obs::MetricsRegistry off(/*enabled=*/false);
  options.train.metrics = &off;

  forecast::DeepArForecaster original(options);
  ASSERT_TRUE(original.Fit(s).ok());
  ASSERT_TRUE(original.SaveCheckpoint(path()).ok());

  forecast::DeepArForecaster restored(options);
  ASSERT_TRUE(restored.LoadCheckpoint(path()).ok());

  // DeepAR's sampling RNG is seeded at construction and untouched by Fit /
  // SaveCheckpoint / LoadCheckpoint, so one Predict on each instance must
  // agree bit-for-bit.
  forecast::ForecastInput input;
  input.start_index = s.size() - 36;
  input.step_minutes = 10.0;
  input.context.assign(s.values.end() - 36, s.values.end());
  auto fc1 = original.Predict(input);
  auto fc2 = restored.Predict(input);
  ASSERT_TRUE(fc1.ok() && fc2.ok());
  for (size_t h = 0; h < 12; ++h) {
    for (size_t q = 0; q < 3; ++q) {
      EXPECT_DOUBLE_EQ(fc1->ValueAtIndex(h, q), fc2->ValueAtIndex(h, q));
    }
  }
  EXPECT_EQ(off.GetCounter("nn.train.steps")->value(), 0);
  EXPECT_EQ(off.GetHistogram("nn.train.loss")->count(), 0u);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}
void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

/// An edit of a checkpoint's decoded tensors.
using TensorEdit = std::function<void(std::vector<tensor::Matrix>*)>;

/// Writes the tensors of the checkpoint at `ckpt`, changed by `edit`, to
/// `out` under the same signature.
void RewriteCheckpoint(const std::string& ckpt, const std::string& out,
                       const TensorEdit& edit) {
  auto mapped = nn::QuantizedCheckpoint::Map(ckpt);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::vector<tensor::Matrix> tensors((*mapped)->num_tensors());
  for (size_t i = 0; i < tensors.size(); ++i) {
    ASSERT_TRUE(
        tensor::DequantizeToMatrix((*mapped)->tensor(i).view, &tensors[i])
            .ok());
  }
  edit(&tensors);
  std::vector<nn::QTensorSpec> specs;
  for (size_t i = 0; i < tensors.size(); ++i) {
    specs.push_back(
        {(*mapped)->tensor(i).name, tensor::DType::kF64, &tensors[i]});
  }
  ASSERT_TRUE(
      nn::WriteQuantizedCheckpoint(out, (*mapped)->signature(), specs).ok());
}

/// Tensor `index` one column wider.
TensorEdit WidenTensor(size_t index) {
  return [index](std::vector<tensor::Matrix>* tensors) {
    const tensor::Matrix& old = (*tensors)[index];
    tensor::Matrix wide(old.rows(), old.cols() + 1);
    for (size_t r = 0; r < old.rows(); ++r) {
      for (size_t c = 0; c < old.cols(); ++c) {
        wide(r, c) = old(r, c);
      }
    }
    (*tensors)[index] = std::move(wide);
  };
}

/// A failed load must leave `model` serving exactly what it served before.
/// Through LoadCheckpoint: a half-truncated checkpoint, one with tensor
/// `wrong_tensor` one column wider, and one a tensor short each fail, and
/// PredictSeeded stays bit-identical. Models that serve mapped checkpoints
/// get the last two through LoadQuantizedCheckpoint as well.
void ExpectFailedLoadsKeepForecast(forecast::Forecaster* model,
                                   const std::string& ckpt,
                                   const std::string& bad_path,
                                   size_t wrong_tensor,
                                   const ts::TimeSeries& s) {
  forecast::ForecastInput input;
  input.start_index = s.size() - model->ContextLength();
  input.step_minutes = s.step_minutes;
  input.context.assign(s.values.end() -
                           static_cast<long>(model->ContextLength()),
                       s.values.end());
  auto before = model->PredictSeeded(input, 7);
  ASSERT_TRUE(before.ok());
  auto expect_unchanged = [&](const std::string& what) {
    auto after = model->PredictSeeded(input, 7);
    ASSERT_TRUE(after.ok()) << what << ": " << after.status().ToString();
    for (size_t h = 0; h < before->Horizon(); ++h) {
      for (size_t q = 0; q < before->Levels().size(); ++q) {
        ASSERT_EQ(before->ValueAtIndex(h, q), after->ValueAtIndex(h, q))
            << model->Name() << " " << what << " step " << h << " level "
            << q;
      }
    }
  };
  const std::string bytes = ReadFile(ckpt);
  WriteFile(bad_path, bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(model->LoadCheckpoint(bad_path).code(),
            StatusCode::kInvalidArgument);
  expect_unchanged("truncated");
  const std::vector<std::pair<std::string, TensorEdit>> edits = {
      {"wrong shape", WidenTensor(wrong_tensor)},
      {"tensor short", [](std::vector<tensor::Matrix>* t) { t->pop_back(); }}};
  for (const auto& [what, edit] : edits) {
    RewriteCheckpoint(ckpt, bad_path, edit);
    EXPECT_EQ(model->LoadCheckpoint(bad_path).code(),
              StatusCode::kInvalidArgument)
        << what;
    expect_unchanged(what);
    if (model->SupportsQuantizedCheckpoint()) {
      auto mapped = nn::QuantizedCheckpoint::Map(bad_path);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      EXPECT_EQ(model->LoadQuantizedCheckpoint(*mapped).code(),
                StatusCode::kInvalidArgument)
          << what;
      expect_unchanged(what + " (mapped)");
    }
  }
  std::filesystem::remove(bad_path);
}

/// A model served from a q8 rpasq file is frozen; a successful
/// LoadCheckpoint makes it a trainable fp64 model again.
void ExpectLoadCheckpointUnfreezes(forecast::Forecaster* model,
                                   const std::string& ckpt,
                                   const std::string& rpasq,
                                   const ts::TimeSeries& history) {
  ASSERT_TRUE(
      nn::QuantizeCheckpointFile(ckpt, rpasq, tensor::DType::kQ8).ok());
  auto mapped = nn::QuantizedCheckpoint::Map(rpasq);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(model->LoadQuantizedCheckpoint(*mapped).ok());
  EXPECT_EQ(model->IncrementalUpdate(history, 3).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(model->LoadCheckpoint(ckpt).ok());
  auto report = model->IncrementalUpdate(history, 3);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->gradient_steps, 0);
  std::filesystem::remove(rpasq);
}

TEST_F(CheckpointTest, DeepArFailedLoadKeepsServingItsWeights) {
  const ts::TimeSeries s = SineSeries(3 * kDay, 0.3, 21);
  forecast::DeepArForecaster::Options options;
  options.context_length = 36;
  options.horizon = 12;
  options.hidden_dim = 8;
  options.batch_size = 4;
  options.num_samples = 25;
  options.train.steps = 20;
  options.fine_tune_steps = 2;
  forecast::DeepArForecaster model(options);
  ASSERT_TRUE(model.Fit(s.Slice(0, s.size() - 3)).ok());
  ASSERT_TRUE(model.SaveCheckpoint(path()).ok());
  // Tensor 3 is the mu head's weight: the old load left it and every later
  // tensor freshly initialized.
  ExpectFailedLoadsKeepForecast(&model, path(), path() + ".bad", 3, s);
  ExpectLoadCheckpointUnfreezes(&model, path(), path() + ".q8", s);
}

TEST_F(CheckpointTest, MlpFailedLoadKeepsServingItsWeightsAndScaler) {
  const ts::TimeSeries s = SineSeries(3 * kDay, 0.3, 22);
  forecast::MlpForecaster::Options options;
  options.context_length = 36;
  options.horizon = 12;
  options.hidden_dim = 16;
  options.train.steps = 20;
  options.fine_tune_steps = 2;
  forecast::MlpForecaster model(options);
  ASSERT_TRUE(model.Fit(s.Slice(0, s.size() - 3)).ok());
  ASSERT_TRUE(model.SaveCheckpoint(path()).ok());
  // Tensor 2 is the second layer's weight.
  ExpectFailedLoadsKeepForecast(&model, path(), path() + ".bad", 2, s);
  ExpectLoadCheckpointUnfreezes(&model, path(), path() + ".q8", s);
}

TEST_F(CheckpointTest, TftFailedLoadKeepsServingItsWeights) {
  const ts::TimeSeries s = SineSeries(3 * kDay, 0.3, 23);
  forecast::TftForecaster::Options options;
  options.context_length = 36;
  options.horizon = 12;
  options.d_model = 8;
  options.batch_size = 2;
  options.train.steps = 10;
  options.levels = {0.1, 0.5, 0.9};
  forecast::TftForecaster model(options);
  ASSERT_TRUE(model.Fit(s).ok());
  ASSERT_TRUE(model.SaveCheckpoint(path()).ok());
  // Tensor 4 is the LSTM's input weight: the old load rebuilt every layer
  // in place before it read a byte.
  ExpectFailedLoadsKeepForecast(&model, path(), path() + ".bad", 4, s);
}

// SaveCheckpoint -> LoadCheckpoint on a fresh instance restores the fitted
// model exactly: the same PredictSeeded bits, and (for the fine-tunable
// models) the same weights after one more IncrementalUpdate. Converting the
// saved file at f64 reproduces it byte for byte.
TEST_F(CheckpointTest, RestoreIsExactTrainableAndCanonical) {
  const ts::TimeSeries s = SineSeries(3 * kDay, 0.3, 24);
  const ts::TimeSeries train = s.Slice(0, s.size() - 3);
  forecast::DeepArForecaster::Options deepar;
  deepar.context_length = 36;
  deepar.horizon = 12;
  deepar.hidden_dim = 8;
  deepar.batch_size = 4;
  deepar.num_samples = 25;
  deepar.train.steps = 10;
  deepar.fine_tune_steps = 2;
  forecast::MlpForecaster::Options mlp;
  mlp.context_length = 36;
  mlp.horizon = 12;
  mlp.hidden_dim = 16;
  mlp.train.steps = 10;
  mlp.fine_tune_steps = 2;
  forecast::TftForecaster::Options tft;
  tft.context_length = 36;
  tft.horizon = 12;
  tft.d_model = 8;
  tft.batch_size = 2;
  tft.train.steps = 10;
  tft.levels = {0.1, 0.5, 0.9};
  using Pair = std::pair<std::unique_ptr<forecast::Forecaster>,
                         std::unique_ptr<forecast::Forecaster>>;
  std::vector<Pair> models;
  models.emplace_back(std::make_unique<forecast::DeepArForecaster>(deepar),
                      std::make_unique<forecast::DeepArForecaster>(deepar));
  models.emplace_back(std::make_unique<forecast::MlpForecaster>(mlp),
                      std::make_unique<forecast::MlpForecaster>(mlp));
  models.emplace_back(std::make_unique<forecast::TftForecaster>(tft),
                      std::make_unique<forecast::TftForecaster>(tft));

  forecast::ForecastInput input;
  input.start_index = s.size() - 36;
  input.step_minutes = s.step_minutes;
  input.context.assign(s.values.end() - 36, s.values.end());
  auto expect_same = [&](const forecast::Forecaster& a,
                         const forecast::Forecaster& b,
                         const std::string& what) {
    auto fa = a.PredictSeeded(input, 5);
    auto fb = b.PredictSeeded(input, 5);
    ASSERT_TRUE(fa.ok() && fb.ok()) << what;
    for (size_t h = 0; h < fa->Horizon(); ++h) {
      for (size_t q = 0; q < fa->Levels().size(); ++q) {
        ASSERT_EQ(fa->ValueAtIndex(h, q), fb->ValueAtIndex(h, q))
            << a.Name() << " " << what << " step " << h << " level " << q;
      }
    }
  };
  const std::string converted = path() + ".f64";
  for (auto& [fitted, restored] : models) {
    ASSERT_TRUE(fitted->Fit(train).ok());
    ASSERT_TRUE(fitted->SaveCheckpoint(path()).ok());
    ASSERT_TRUE(restored->LoadCheckpoint(path()).ok());
    expect_same(*fitted, *restored, "restored");

    ASSERT_TRUE(
        nn::QuantizeCheckpointFile(path(), converted, tensor::DType::kF64)
            .ok());
    EXPECT_EQ(ReadFile(converted), ReadFile(path())) << fitted->Name();

    if (fitted->SupportsIncrementalUpdate()) {
      auto a = fitted->IncrementalUpdate(s, 3);
      auto b = restored->IncrementalUpdate(s, 3);
      ASSERT_TRUE(a.ok() && b.ok()) << fitted->Name();
      EXPECT_GT(b->gradient_steps, 0);
      expect_same(*fitted, *restored, "fine-tuned");
    }
  }
  std::filesystem::remove(converted);
}

TEST_F(CheckpointTest, SaveUnfittedModelFails) {
  forecast::TftForecaster model(forecast::TftForecaster::Options{});
  EXPECT_EQ(model.SaveCheckpoint(path()).code(),
            StatusCode::kFailedPrecondition);
}

// -------------------------------------------------------------- OnlineLoop ---

class OnlineLoopFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    series_ = SineSeries(8 * kDay, 0.3, 11);
    forecast::SeasonalNaiveForecaster::Options options;
    options.context_length = kDay;
    options.horizon = 36;
    options.season = kDay;
    model_ = std::make_unique<forecast::SeasonalNaiveForecaster>(options);
    ASSERT_TRUE(model_->Fit(series_.Slice(0, 6 * kDay)).ok());
    config_.theta = 2.0;
    config_.min_nodes = 1;
    manager_ = std::make_unique<core::RobustAutoScalingManager>(
        model_.get(), std::make_unique<core::RobustQuantileAllocator>(0.9),
        config_);
  }

  core::OnlineLoopOptions LoopOptions() const {
    core::OnlineLoopOptions options;
    options.cluster.node_capacity = config_.theta;
    options.cluster.initial_nodes = 5;
    return options;
  }

  ts::TimeSeries series_;
  std::unique_ptr<forecast::SeasonalNaiveForecaster> model_;
  core::ScalingConfig config_;
  std::unique_ptr<core::RobustAutoScalingManager> manager_;
};

TEST_F(OnlineLoopFixture, RunsAndReplansEveryHorizon) {
  auto result = core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay,
                                    LoopOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->allocation.size(), kDay);
  EXPECT_EQ(result->steps.size(), kDay);
  // 144 steps at horizon 36 -> 4 plans.
  EXPECT_EQ(result->plans_made, 4u);
}

TEST_F(OnlineLoopFixture, CustomReplanInterval) {
  core::OnlineLoopOptions options = LoopOptions();
  options.replan_every = 12;
  auto result =
      core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plans_made, kDay / 12);
}

TEST_F(OnlineLoopFixture, RobustLoopMostlyAvoidsUnderProvisioning) {
  auto result = core::RunOnlineLoop(*manager_, series_, 6 * kDay, 2 * kDay,
                                    LoopOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->under_provision_rate, 0.15);
  EXPECT_GT(result->mean_utilization, 0.0);
  EXPECT_GT(result->total_node_steps, 0);
}

// The simulator and Eq. 3 agree on "enough nodes": on every step whose
// nodes are all warm, the exported decision is under-provisioned exactly
// when the applied target is below RequiredNodes of the realized workload.
TEST_F(OnlineLoopFixture, ExportedUnderProvisionFlagIsEq3OnWarmSteps) {
  manager_ = std::make_unique<core::RobustAutoScalingManager>(
      model_.get(), std::make_unique<core::PointForecastAllocator>(),
      config_);
  auto result = core::RunOnlineLoop(*manager_, series_, 6 * kDay, 2 * kDay,
                                    LoopOptions());
  ASSERT_TRUE(result.ok());
  const std::vector<obs::ScalingDecision> decisions =
      core::CollectDecisions(*result, "eq3");
  ASSERT_EQ(decisions.size(), 2 * kDay);
  size_t warm = 0;
  size_t under = 0;
  for (const obs::ScalingDecision& d : decisions) {
    if (d.active_nodes != d.target_nodes) {
      continue;
    }
    ++warm;
    const bool eq3 =
        d.target_nodes < core::RequiredNodes(d.workload, config_);
    EXPECT_EQ(d.under_provisioned, eq3) << "step " << d.step;
    under += eq3 ? 1 : 0;
  }
  // Both verdicts occur on warm steps.
  EXPECT_GT(warm, decisions.size() / 2);
  EXPECT_GT(under, 0u);
  EXPECT_LT(under, warm);
}

// Allocator stub that violates the planner contract by returning no steps.
class EmptyPlanAllocator final : public core::QuantileAllocator {
 public:
  Result<std::vector<int>> Allocate(
      const ts::QuantileForecast&,
      const core::ScalingConfig&) const override {
    return std::vector<int>{};
  }
  std::string Name() const override { return "EmptyPlan"; }
};

TEST_F(OnlineLoopFixture, EmptyPlanIsInternalErrorNotUb) {
  // Regression: the loop used to index current_plan[0] on an empty plan —
  // out-of-bounds UB. It must surface Internal instead.
  core::RobustAutoScalingManager manager(
      model_.get(), std::make_unique<EmptyPlanAllocator>(), config_);
  auto result =
      core::RunOnlineLoop(manager, series_, 6 * kDay, 10, LoopOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST_F(OnlineLoopFixture, RejectsBadRanges) {
  auto empty =
      core::RunOnlineLoop(*manager_, series_, 6 * kDay, 0, LoopOptions());
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  auto past_end = core::RunOnlineLoop(*manager_, series_, series_.size(), 10,
                                      LoopOptions());
  ASSERT_FALSE(past_end.ok());
  EXPECT_EQ(past_end.status().code(), StatusCode::kInvalidArgument);
  // Off-by-one boundaries: one step past the end fails up front, the exact
  // end is accepted.
  auto one_past = core::RunOnlineLoop(*manager_, series_,
                                      series_.size() - kDay, kDay + 1,
                                      LoopOptions());
  ASSERT_FALSE(one_past.ok());
  EXPECT_EQ(one_past.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(core::RunOnlineLoop(*manager_, series_, series_.size() - kDay,
                                  kDay, LoopOptions())
                  .ok());
}

TEST_F(OnlineLoopFixture, RejectsEvalStartInsideForecasterContext) {
  // eval_start must leave at least context_length points of history; the
  // loop reports this up front instead of failing on the first PlanNext.
  ASSERT_GT(manager_->ContextLength(), 0u);
  auto result = core::RunOnlineLoop(*manager_, series_,
                                    manager_->ContextLength() - 1, 10,
                                    LoopOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------- MultiResource ---

TEST(MultiResourceTest, BindingResourceWins) {
  core::ScalingConfig config;
  config.theta = 1.0;  // ignored
  std::vector<core::ResourceDemand> demands = {
      {"cpu", {4.0, 1.0}, 2.0},     // needs 2, 1
      {"memory", {3.0, 9.0}, 3.0},  // needs 1, 3
  };
  auto alloc = core::AllocateMultiResource(demands, config);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(*alloc, (std::vector<int>{2, 3}));
  auto binding = core::BindingResourcePerStep(demands, config);
  ASSERT_TRUE(binding.ok());
  EXPECT_EQ(*binding, (std::vector<int>{0, 1}));
}

TEST(MultiResourceTest, MinNodesFloor) {
  core::ScalingConfig config;
  config.min_nodes = 2;
  std::vector<core::ResourceDemand> demands = {{"cpu", {0.1}, 1.0}};
  auto alloc = core::AllocateMultiResource(demands, config);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ((*alloc)[0], 2);
  auto binding = core::BindingResourcePerStep(demands, config);
  ASSERT_TRUE(binding.ok());
  EXPECT_EQ((*binding)[0], -1);  // floor binds, not a resource
}

TEST(MultiResourceTest, CapViolationReported) {
  core::ScalingConfig config;
  config.max_nodes = 2;
  std::vector<core::ResourceDemand> demands = {{"cpu", {10.0}, 1.0}};
  EXPECT_EQ(core::AllocateMultiResource(demands, config).status().code(),
            StatusCode::kOutOfRange);
}

TEST(MultiResourceTest, MismatchedLengthsRejected) {
  core::ScalingConfig config;
  std::vector<core::ResourceDemand> demands = {{"cpu", {1.0, 2.0}, 1.0},
                                               {"mem", {1.0}, 1.0}};
  EXPECT_FALSE(core::AllocateMultiResource(demands, config).ok());
}

TEST(MultiResourceTest, QuantileVariantUsesTauTrajectories) {
  core::ScalingConfig config;
  ts::QuantileForecast cpu({0.5, 0.9}, {{2.0, 4.0}});
  ts::QuantileForecast mem({0.5, 0.9}, {{1.0, 9.0}});
  auto alloc = core::AllocateMultiResourceQuantile(
      {{cpu, 1.0}, {mem, 3.0}}, 0.9, config);
  ASSERT_TRUE(alloc.ok());
  // cpu: ceil(4/1) = 4; mem: ceil(9/3) = 3 -> 4.
  EXPECT_EQ((*alloc)[0], 4);
}

TEST(MultiResourceTest, SingleResourceMatchesScalarPath) {
  core::ScalingConfig config;
  std::vector<core::ResourceDemand> demands = {{"cpu", {7.3, 0.0, 2.0}, 1.0}};
  auto alloc = core::AllocateMultiResource(demands, config);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(*alloc, (std::vector<int>{8, 1, 2}));
}

}  // namespace
}  // namespace rpas
