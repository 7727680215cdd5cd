#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "forecast/arima.h"
#include "forecast/deepar.h"
#include "forecast/forecaster.h"
#include "forecast/holt_winters.h"
#include "forecast/mlp.h"
#include "forecast/qb5000.h"
#include "forecast/seasonal_naive.h"
#include "forecast/tft.h"
#include "forecast/time_features.h"
#include "ts/metrics.h"

namespace rpas::forecast {
namespace {

constexpr size_t kDay = 144;  // steps per day at 10-minute interval

/// Noisy daily sinusoid: the canonical easy workload.
ts::TimeSeries SineSeries(size_t num_steps, double noise, uint64_t seed) {
  ts::TimeSeries s;
  s.step_minutes = 10.0;
  s.name = "sine";
  Rng rng(seed);
  for (size_t i = 0; i < num_steps; ++i) {
    const double phase = 2.0 * M_PI * static_cast<double>(i % kDay) /
                         static_cast<double>(kDay);
    s.values.push_back(10.0 + 4.0 * std::sin(phase) +
                       noise * rng.Normal());
  }
  return s;
}

ForecastInput InputFromTail(const ts::TimeSeries& s, size_t context) {
  ForecastInput input;
  input.start_index = s.size() - context;
  input.step_minutes = s.step_minutes;
  input.context.assign(s.values.end() - static_cast<long>(context),
                       s.values.end());
  return input;
}

/// One NaN, +Inf or -Inf in an otherwise valid context must be rejected as
/// InvalidArgument naming its index by Predict, PredictSeeded, PredictBatch
/// (whose other request is valid) and PredictPoint, not forecast.
void ExpectNonFiniteContextRejected(const Forecaster& model,
                                    const ForecastInput& good) {
  ASSERT_TRUE(model.Predict(good).ok());
  const size_t bad_index = good.context.size() / 2;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    ForecastInput input = good;
    input.context[bad_index] = bad;
    const std::string what = model.Name() + " context value " +
                             std::to_string(bad);
    const std::string index = "context[" + std::to_string(bad_index) + "]";
    const Status statuses[] = {
        model.Predict(input).status(),
        model.PredictSeeded(input, 5).status(),
        model.PredictBatch({good, input}, {1, 2}).status(),
        model.PredictPoint(input).status()};
    for (const Status& status : statuses) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
      EXPECT_NE(status.message().find(index), std::string::npos)
          << what << ": " << status.ToString();
    }
  }
}

void ExpectQuantilesMonotone(const ts::QuantileForecast& fc) {
  for (size_t h = 0; h < fc.Horizon(); ++h) {
    for (size_t q = 1; q < fc.Levels().size(); ++q) {
      EXPECT_GE(fc.ValueAtIndex(h, q), fc.ValueAtIndex(h, q - 1))
          << "crossing quantiles at step " << h;
    }
  }
}

// ----------------------------------------------------------- ForecastInput ---

TEST(ForecastInputTest, WindowHoldsTheContextValuesBeforeEnd) {
  ts::TimeSeries s;
  s.values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  s.step_minutes = 5.0;
  const ForecastInput input = ForecastInput::Window(s, 5, 3);
  EXPECT_EQ(input.context, (std::vector<double>{3.0, 4.0, 5.0}));
  EXPECT_EQ(input.start_index, 2u);
  EXPECT_EQ(input.forecast_start(), 5u);
  EXPECT_EQ(input.step_minutes, 5.0);
  EXPECT_EQ(ForecastInput::Window(s, 6, 6).context, s.values);
  EXPECT_TRUE(ForecastInput::Window(s, 0, 0).context.empty());
}

TEST(ForecastInputDeathTest, WindowOutsideTheSeriesAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ts::TimeSeries s;
  s.values = {1.0, 2.0, 3.0};
  EXPECT_DEATH(ForecastInput::Window(s, 4, 2), "outside a series of 3");
  EXPECT_DEATH(ForecastInput::Window(s, 1, 2), "outside a series of 3");
}

// ------------------------------------------------------------ TimeFeatures ---

TEST(TimeFeaturesTest, UnitCircle) {
  for (size_t i : {0u, 17u, 100u, 1000u}) {
    const auto tf = TimeFeatures(i, 10.0);
    EXPECT_NEAR(tf[0] * tf[0] + tf[1] * tf[1], 1.0, 1e-12);
    EXPECT_NEAR(tf[2] * tf[2] + tf[3] * tf[3], 1.0, 1e-12);
  }
}

TEST(TimeFeaturesTest, DailyPeriodicity) {
  const auto a = TimeFeatures(5, 10.0);
  const auto b = TimeFeatures(5 + kDay, 10.0);  // one day later
  EXPECT_NEAR(a[0], b[0], 1e-9);
  EXPECT_NEAR(a[1], b[1], 1e-9);
}

TEST(TimeFeaturesTest, WeeklyPeriodicity) {
  const auto a = TimeFeatures(3, 10.0);
  const auto b = TimeFeatures(3 + 7 * kDay, 10.0);
  EXPECT_NEAR(a[2], b[2], 1e-9);
  EXPECT_NEAR(a[3], b[3], 1e-9);
}

TEST(TimeFeaturesTest, MidDayDiffersFromMidnight) {
  const auto midnight = TimeFeatures(0, 10.0);
  const auto noon = TimeFeatures(kDay / 2, 10.0);
  EXPECT_GT(std::fabs(midnight[1] - noon[1]), 1.0);
}

// ----------------------------------------------------------- SeasonalNaive ---

TEST(SeasonalNaiveTest, ExactOnPureSeasonalSeries) {
  ts::TimeSeries s = SineSeries(6 * kDay, /*noise=*/0.0, 1);
  SeasonalNaiveForecaster::Options options;
  options.context_length = kDay;
  options.horizon = 36;
  options.season = kDay;
  SeasonalNaiveForecaster model(options);
  ASSERT_TRUE(model.Fit(s.Slice(0, 4 * kDay)).ok());

  ForecastInput input = InputFromTail(s.Slice(0, 5 * kDay), kDay);
  auto fc = model.Predict(input);
  ASSERT_TRUE(fc.ok());
  for (size_t h = 0; h < 36; ++h) {
    EXPECT_NEAR(fc->Value(h, 0.5), s.values[5 * kDay + h], 1e-6);
  }
}

TEST(SeasonalNaiveTest, RequiresFit) {
  SeasonalNaiveForecaster model({});
  ForecastInput input;
  input.context.assign(72, 1.0);
  EXPECT_EQ(model.Predict(input).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SeasonalNaiveTest, NoisierSeriesWiderIntervals) {
  auto fit_width = [](double noise) {
    ts::TimeSeries s = SineSeries(5 * kDay, noise, 2);
    SeasonalNaiveForecaster::Options options;
    options.context_length = kDay;
    options.horizon = 12;
    options.season = kDay;
    SeasonalNaiveForecaster model(options);
    EXPECT_TRUE(model.Fit(s.Slice(0, 4 * kDay)).ok());
    ForecastInput input;
    input.start_index = 4 * kDay - kDay;
    input.step_minutes = 10.0;
    input.context.assign(
        s.values.begin() + static_cast<long>(4 * kDay - kDay),
        s.values.begin() + static_cast<long>(4 * kDay));
    auto fc = model.Predict(input);
    EXPECT_TRUE(fc.ok());
    return fc->Value(0, 0.9) - fc->Value(0, 0.1);
  };
  EXPECT_GT(fit_width(2.0), fit_width(0.2));
}

TEST(SeasonalNaiveTest, NonFiniteContextRejectedOnEveryPath) {
  const ts::TimeSeries s = SineSeries(5 * kDay, /*noise=*/0.3, 13);
  SeasonalNaiveForecaster::Options options;
  options.context_length = kDay;
  options.horizon = 12;
  options.season = kDay;
  SeasonalNaiveForecaster model(options);
  ASSERT_TRUE(model.Fit(s).ok());
  // The 12-step forecast reads only context[0..11] and the last value, so
  // only the entry check can see the bad value at context[72].
  ExpectNonFiniteContextRejected(model, InputFromTail(s, kDay));
}

// ------------------------------------------------------------ HoltWinters ---

TEST(HoltWintersTest, NonFiniteContextRejectedOnEveryPath) {
  const ts::TimeSeries s = SineSeries(6 * kDay, /*noise=*/0.1, 14);
  HoltWintersForecaster::Options options;
  options.context_length = 2 * kDay;
  options.horizon = 12;
  options.season = kDay;
  HoltWintersForecaster model(options);
  ASSERT_TRUE(model.Fit(s).ok());
  ExpectNonFiniteContextRejected(model, InputFromTail(s, 2 * kDay));
}

// ------------------------------------------------------------------ ARIMA ---

TEST(ArimaTest, RecoversAr2Coefficients) {
  // Simulate a stationary AR(2): x_t = 0.6 x_{t-1} - 0.2 x_{t-2} + e.
  Rng rng(3);
  std::vector<double> x = {0.0, 0.0};
  for (int t = 2; t < 6000; ++t) {
    x.push_back(0.6 * x[t - 1] - 0.2 * x[t - 2] + rng.Normal());
  }
  ts::TimeSeries s;
  s.values = x;
  ArimaForecaster::Options options;
  options.p = 2;
  options.d = 0;
  options.q = 0;
  options.context_length = 48;
  options.horizon = 8;
  ArimaForecaster model(options);
  ASSERT_TRUE(model.Fit(s).ok());
  ASSERT_EQ(model.phi().size(), 2u);
  EXPECT_NEAR(model.phi()[0], 0.6, 0.05);
  EXPECT_NEAR(model.phi()[1], -0.2, 0.05);
  EXPECT_NEAR(model.sigma2(), 1.0, 0.1);
}

TEST(ArimaTest, IntervalsWidenWithHorizon) {
  ts::TimeSeries s = SineSeries(5 * kDay, 1.0, 4);
  ArimaForecaster::Options options;
  options.context_length = 72;
  options.horizon = 36;
  ArimaForecaster model(options);
  ASSERT_TRUE(model.Fit(s.Slice(0, 4 * kDay)).ok());
  auto fc = model.Predict(InputFromTail(s, 72));
  ASSERT_TRUE(fc.ok());
  const double early = fc->Value(0, 0.9) - fc->Value(0, 0.1);
  const double late = fc->Value(35, 0.9) - fc->Value(35, 0.1);
  EXPECT_GT(late, early);
  ExpectQuantilesMonotone(*fc);
}

TEST(ArimaTest, DifferencedModelTracksTrend) {
  // Linear trend + noise; with d=1 the forecast should keep climbing.
  Rng rng(5);
  ts::TimeSeries s;
  for (int t = 0; t < 2000; ++t) {
    s.values.push_back(0.05 * t + 0.3 * rng.Normal());
  }
  ArimaForecaster::Options options;
  options.p = 2;
  options.d = 1;
  options.q = 1;
  options.context_length = 72;
  options.horizon = 24;
  ArimaForecaster model(options);
  ASSERT_TRUE(model.Fit(s.Slice(0, 1800)).ok());
  auto fc = model.Predict(InputFromTail(s, 72));
  ASSERT_TRUE(fc.ok());
  const auto median = fc->Median();
  const double last = s.values.back();
  EXPECT_GT(median[23], last);  // trend continues upward
  // Roughly the right slope over 24 steps: 24*0.05 = 1.2.
  EXPECT_NEAR(median[23] - last, 1.2, 0.8);
}

TEST(ArimaTest, RequiresFitBeforePredict) {
  ArimaForecaster model({});
  ForecastInput input;
  input.context.assign(72, 1.0);
  EXPECT_EQ(model.Predict(input).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ArimaTest, NonFiniteContextRejectedOnEveryPath) {
  const ts::TimeSeries s = SineSeries(4 * kDay, /*noise=*/0.3, 12);
  ArimaForecaster model({});
  ASSERT_TRUE(model.Fit(s).ok());
  ExpectNonFiniteContextRejected(model,
                                 InputFromTail(s, model.ContextLength()));
}

TEST(ArimaTest, RejectsTooShortTrainingSeries) {
  ts::TimeSeries tiny;
  tiny.values.assign(20, 1.0);
  ArimaForecaster model({});
  EXPECT_EQ(model.Fit(tiny).code(), StatusCode::kInvalidArgument);
}

TEST(ArimaTest, GaussianCoverageApproximatelyCalibrated) {
  // Pure white noise around a level: ARIMA(1,0,1) intervals should cover
  // roughly the right fraction one step ahead.
  Rng rng(6);
  ts::TimeSeries s;
  for (int t = 0; t < 4000; ++t) {
    s.values.push_back(10.0 + rng.Normal());
  }
  ArimaForecaster::Options options;
  options.p = 1;
  options.d = 0;
  options.q = 1;
  options.context_length = 48;
  options.horizon = 1;
  ArimaForecaster model(options);
  auto [train, test] = s.SplitTail(500);
  ASSERT_TRUE(model.Fit(train).ok());
  auto rolled = RollForecasts(model, train, test, /*stride=*/1);
  ASSERT_TRUE(rolled.ok());
  auto report = ts::EvaluateForecasts(rolled->forecasts, rolled->actuals,
                                      {0.1, 0.5, 0.9});
  EXPECT_NEAR(report.coverage.at(0.9), 0.9, 0.05);
  EXPECT_NEAR(report.coverage.at(0.1), 0.1, 0.05);
  EXPECT_NEAR(report.coverage.at(0.5), 0.5, 0.06);
}

TEST(SarimaTest, SeasonalDifferencingTracksTheCycle) {
  // A strongly seasonal series over a 72-step horizon: SARIMA-lite
  // (seasonal_d=1) must beat the plain ARIMA(3,1,2) materially.
  ts::TimeSeries s = SineSeries(8 * kDay, /*noise=*/0.4, 20);
  auto [train, test] = s.SplitTail(kDay);

  auto evaluate = [&](int seasonal_d) {
    ArimaForecaster::Options options;
    options.p = 3;
    options.d = seasonal_d == 1 ? 0 : 1;
    options.q = 2;
    options.seasonal_d = seasonal_d;
    options.season = kDay;
    options.context_length = 2 * kDay;  // two full seasons of context
    options.horizon = 72;
    ArimaForecaster model(options);
    EXPECT_TRUE(model.Fit(train).ok());
    auto rolled = RollForecasts(model, train, test, 72);
    EXPECT_TRUE(rolled.ok());
    auto report =
        ts::EvaluateForecasts(rolled->forecasts, rolled->actuals, {0.5});
    return report.mse;
  };
  const double plain = evaluate(0);
  const double seasonal = evaluate(1);
  EXPECT_LT(seasonal, 0.5 * plain);
  EXPECT_LT(seasonal, 1.0);  // near the noise floor (0.4^2 = 0.16)
}

TEST(SarimaTest, SeasonalPredictionQuantilesMonotone) {
  ts::TimeSeries s = SineSeries(8 * kDay, 0.4, 21);
  ArimaForecaster::Options options;
  options.p = 2;
  options.d = 0;
  options.q = 1;
  options.seasonal_d = 1;
  options.season = kDay;
  options.context_length = 2 * kDay;
  options.horizon = 36;
  ArimaForecaster model(options);
  ASSERT_TRUE(model.Fit(s.Slice(0, 7 * kDay)).ok());
  auto fc = model.Predict(InputFromTail(s, 2 * kDay));
  ASSERT_TRUE(fc.ok());
  ExpectQuantilesMonotone(*fc);
}

TEST(SarimaTest, RejectsContextShorterThanSeason) {
  ts::TimeSeries s = SineSeries(8 * kDay, 0.4, 22);
  ArimaForecaster::Options options;
  options.seasonal_d = 1;
  options.season = kDay;
  options.context_length = 2 * kDay;
  options.horizon = 12;
  ArimaForecaster model(options);
  ASSERT_TRUE(model.Fit(s.Slice(0, 7 * kDay)).ok());
  ForecastInput input;
  input.context.assign(kDay / 2, 1.0);  // shorter than one season
  EXPECT_FALSE(model.Predict(input).ok());
}

// -------------------------------------------------------------------- MLP ---

class MlpFixture : public ::testing::Test {
 protected:
  static constexpr size_t kContext = 36;
  static constexpr size_t kHorizon = 12;

  void SetUp() override {
    series_ = SineSeries(5 * kDay, /*noise=*/0.3, 7);
    MlpForecaster::Options options;
    options.context_length = kContext;
    options.horizon = kHorizon;
    options.hidden_dim = 32;
    options.batch_size = 32;
    options.train.steps = 250;
    options.train.lr = 2e-3;
    model_ = std::make_unique<MlpForecaster>(options);
    auto [train, test] = series_.SplitTail(kDay);
    train_ = train;
    test_ = test;
    ASSERT_TRUE(model_->Fit(train_).ok());
  }

  ts::TimeSeries series_;
  ts::TimeSeries train_;
  ts::TimeSeries test_;
  std::unique_ptr<MlpForecaster> model_;
};

TEST_F(MlpFixture, LearnsSinusoidReasonably) {
  auto rolled = RollForecasts(*model_, train_, test_, /*stride=*/kHorizon);
  ASSERT_TRUE(rolled.ok());
  auto report = ts::EvaluateForecasts(rolled->forecasts, rolled->actuals,
                                      {0.5});
  // Series mean 10, amplitude 4; an untrained predictor would have MSE ~ 8.
  EXPECT_LT(report.mse, 3.0);
}

TEST_F(MlpFixture, QuantilesMonotoneAndFiniteEverywhere) {
  auto fc = model_->Predict(InputFromTail(train_, kContext));
  ASSERT_TRUE(fc.ok());
  ExpectQuantilesMonotone(*fc);
  for (size_t h = 0; h < fc->Horizon(); ++h) {
    for (size_t q = 0; q < fc->Levels().size(); ++q) {
      EXPECT_TRUE(std::isfinite(fc->ValueAtIndex(h, q)));
    }
  }
}

TEST_F(MlpFixture, PredictRejectsWrongContextLength) {
  ForecastInput input;
  input.context.assign(5, 1.0);
  EXPECT_EQ(model_->Predict(input).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MlpFixture, NonFiniteContextRejectedOnEveryPath) {
  ExpectNonFiniteContextRejected(*model_, InputFromTail(train_, kContext));
  ForecastInput input = InputFromTail(train_, kContext);
  input.context[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(model_->PredictDistribution(input).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MlpFixture, DistributionSigmaPositive) {
  auto dist = model_->PredictDistribution(InputFromTail(train_, kContext));
  ASSERT_TRUE(dist.ok());
  for (double sd : dist->stddev) {
    EXPECT_GT(sd, 0.0);
  }
}

// ----------------------------------------------------------------- DeepAR ---

class DeepArFixture : public ::testing::Test {
 protected:
  static constexpr size_t kContext = 36;
  static constexpr size_t kHorizon = 12;

  void SetUp() override {
    series_ = SineSeries(4 * kDay, /*noise=*/0.3, 8);
    DeepArForecaster::Options options;
    options.context_length = kContext;
    options.horizon = kHorizon;
    options.hidden_dim = 16;
    options.batch_size = 8;
    options.num_samples = 60;
    options.train.steps = 120;
    options.train.lr = 5e-3;
    model_ = std::make_unique<DeepArForecaster>(options);
    auto [train, test] = series_.SplitTail(kDay);
    train_ = train;
    test_ = test;
    ASSERT_TRUE(model_->Fit(train_).ok());
  }

  ts::TimeSeries series_;
  ts::TimeSeries train_;
  ts::TimeSeries test_;
  std::unique_ptr<DeepArForecaster> model_;
};

TEST_F(DeepArFixture, TracksSinusoidBetterThanConstant) {
  auto rolled = RollForecasts(*model_, train_, test_, /*stride=*/kHorizon);
  ASSERT_TRUE(rolled.ok());
  auto report =
      ts::EvaluateForecasts(rolled->forecasts, rolled->actuals, {0.5});
  // Variance of the signal is 4^2/2 = 8; the model must beat a constant.
  EXPECT_LT(report.mse, 6.0);
}

TEST_F(DeepArFixture, QuantilesMonotone) {
  auto fc = model_->Predict(InputFromTail(train_, kContext));
  ASSERT_TRUE(fc.ok());
  ExpectQuantilesMonotone(*fc);
}

TEST_F(DeepArFixture, SampleTrajectoriesShape) {
  auto trajectories =
      model_->SampleTrajectories(InputFromTail(train_, kContext), 17);
  ASSERT_TRUE(trajectories.ok());
  EXPECT_EQ(trajectories->size(), 17u);
  EXPECT_EQ((*trajectories)[0].size(), kHorizon);
}

TEST_F(DeepArFixture, SamplingSpreadGrowsWithHorizon) {
  // Ancestral sampling accumulates error: later steps spread at least as
  // wide as the first step (paper Fig. 8 rationale).
  auto fc = model_->Predict(InputFromTail(train_, kContext));
  ASSERT_TRUE(fc.ok());
  const double first = fc->Value(0, 0.9) - fc->Value(0, 0.1);
  const double last =
      fc->Value(kHorizon - 1, 0.9) - fc->Value(kHorizon - 1, 0.1);
  EXPECT_GT(last, 0.3 * first);  // must not collapse
}

TEST_F(DeepArFixture, NonFiniteContextRejectedOnEveryPath) {
  ExpectNonFiniteContextRejected(*model_, InputFromTail(train_, kContext));
  ForecastInput input = InputFromTail(train_, kContext);
  input.context[0] = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(model_->SampleTrajectories(input, 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DeepArFixture, RequiresFitBeforePredict) {
  DeepArForecaster fresh(DeepArForecaster::Options{});
  ForecastInput input;
  input.context.assign(72, 1.0);
  EXPECT_EQ(fresh.Predict(input).status().code(),
            StatusCode::kFailedPrecondition);
}

// -------------------------------------------------------------------- TFT ---

class TftFixture : public ::testing::Test {
 protected:
  static constexpr size_t kContext = 36;
  static constexpr size_t kHorizon = 12;

  void SetUp() override {
    series_ = SineSeries(4 * kDay, /*noise=*/0.3, 9);
    TftForecaster::Options options;
    options.context_length = kContext;
    options.horizon = kHorizon;
    options.d_model = 8;
    options.num_heads = 2;
    options.batch_size = 2;
    options.train.steps = 150;
    options.train.lr = 5e-3;
    options.levels = {0.1, 0.5, 0.9};
    model_ = std::make_unique<TftForecaster>(options);
    auto [train, test] = series_.SplitTail(kDay);
    train_ = train;
    test_ = test;
    ASSERT_TRUE(model_->Fit(train_).ok());
  }

  ts::TimeSeries series_;
  ts::TimeSeries train_;
  ts::TimeSeries test_;
  std::unique_ptr<TftForecaster> model_;
};

TEST_F(TftFixture, LearnsSinusoidReasonably) {
  auto rolled = RollForecasts(*model_, train_, test_, /*stride=*/kHorizon);
  ASSERT_TRUE(rolled.ok());
  auto report =
      ts::EvaluateForecasts(rolled->forecasts, rolled->actuals, {0.5});
  EXPECT_LT(report.mse, 6.0);
}

TEST_F(TftFixture, QuantilesMonotoneAfterSorting) {
  auto fc = model_->Predict(InputFromTail(train_, kContext));
  ASSERT_TRUE(fc.ok());
  ExpectQuantilesMonotone(*fc);
}

TEST_F(TftFixture, UpperQuantileAboveLower) {
  // The pinball loss pushes the 0.9 head above the 0.1 head on average.
  auto rolled = RollForecasts(*model_, train_, test_, /*stride=*/kHorizon);
  ASSERT_TRUE(rolled.ok());
  double spread = 0.0;
  size_t n = 0;
  for (const auto& fc : rolled->forecasts) {
    for (size_t h = 0; h < fc.Horizon(); ++h) {
      spread += fc.Value(h, 0.9) - fc.Value(h, 0.1);
      ++n;
    }
  }
  EXPECT_GT(spread / static_cast<double>(n), 0.05);
}

TEST_F(TftFixture, NonFiniteContextRejectedOnEveryPath) {
  ExpectNonFiniteContextRejected(*model_, InputFromTail(train_, kContext));
}

TEST(TftPointTest, SingleLevelActsAsPointForecaster) {
  ts::TimeSeries series = SineSeries(3 * kDay, 0.3, 10);
  TftForecaster::Options options;
  options.context_length = 36;
  options.horizon = 12;
  options.d_model = 8;
  options.num_heads = 2;
  options.batch_size = 2;
  options.train.steps = 60;
  options.levels = {0.5};
  options.name = "TFT-point";
  TftForecaster model(options);
  ASSERT_TRUE(model.Fit(series).ok());
  EXPECT_EQ(model.Name(), "TFT-point");
  auto fc = model.Predict(InputFromTail(series, 36));
  ASSERT_TRUE(fc.ok());
  EXPECT_EQ(fc->Levels().size(), 1u);
  auto point = model.PredictPoint(InputFromTail(series, 36));
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->size(), 12u);
}

// ----------------------------------------------------------------- QB5000 ---

class Qb5000Fixture : public ::testing::Test {
 protected:
  static constexpr size_t kContext = 36;
  static constexpr size_t kHorizon = 12;

  void SetUp() override {
    series_ = SineSeries(4 * kDay, /*noise=*/0.3, 11);
    Qb5000Forecaster::Options options;
    options.context_length = kContext;
    options.horizon = kHorizon;
    options.lstm_hidden = 12;
    options.batch_size = 8;
    options.train.steps = 80;
    options.train.lr = 5e-3;
    options.max_kernel_windows = 128;
    model_ = std::make_unique<Qb5000Forecaster>(options);
    auto [train, test] = series_.SplitTail(kDay);
    train_ = train;
    test_ = test;
    ASSERT_TRUE(model_->Fit(train_).ok());
  }

  ts::TimeSeries series_;
  ts::TimeSeries train_;
  ts::TimeSeries test_;
  std::unique_ptr<Qb5000Forecaster> model_;
};

TEST_F(Qb5000Fixture, EnsembleIsMeanOfComponents) {
  ForecastInput input = InputFromTail(train_, kContext);
  auto lr = model_->PredictLinear(input);
  auto lstm = model_->PredictLstm(input);
  auto kernel = model_->PredictKernel(input);
  auto ensemble = model_->PredictPoint(input);
  ASSERT_TRUE(lr.ok() && lstm.ok() && kernel.ok() && ensemble.ok());
  for (size_t h = 0; h < kHorizon; ++h) {
    EXPECT_NEAR((*ensemble)[h],
                ((*lr)[h] + (*lstm)[h] + (*kernel)[h]) / 3.0, 1e-9);
  }
}

TEST_F(Qb5000Fixture, PointForecastReasonable) {
  auto rolled = RollForecasts(*model_, train_, test_, /*stride=*/kHorizon);
  ASSERT_TRUE(rolled.ok());
  auto report =
      ts::EvaluateForecasts(rolled->forecasts, rolled->actuals, {0.5});
  EXPECT_LT(report.mse, 4.0);
}

TEST_F(Qb5000Fixture, PredictExposesSingleLevel) {
  auto fc = model_->Predict(InputFromTail(train_, kContext));
  ASSERT_TRUE(fc.ok());
  EXPECT_EQ(fc->Levels(), (std::vector<double>{0.5}));
}

// QB5000 overrides PredictPoint, which the helper calls too.
TEST_F(Qb5000Fixture, NonFiniteContextRejectedOnEveryPath) {
  ExpectNonFiniteContextRejected(*model_, InputFromTail(train_, kContext));
}

TEST_F(Qb5000Fixture, KernelComponentInterpolatesTrainingData) {
  // On an exact repeat of a training context, kernel regression must be
  // close to the matching future.
  ForecastInput input;
  input.start_index = kDay;  // aligned with training data
  input.step_minutes = 10.0;
  input.context.assign(
      train_.values.begin() + static_cast<long>(kDay),
      train_.values.begin() + static_cast<long>(kDay + kContext));
  auto kernel = model_->PredictKernel(input);
  ASSERT_TRUE(kernel.ok());
  for (size_t h = 0; h < 3; ++h) {
    EXPECT_NEAR((*kernel)[h], train_.values[kDay + kContext + h], 2.5);
  }
}

// ------------------------------------------------------- Train budgets ---

TEST(TrainBudgetTest, ZeroStepFitIsInvalidArgumentForEveryTrainedModel) {
  // TrainLoop cannot run zero steps; every model rejects the budget before
  // it builds a layer, instead of aborting the process.
  const ts::TimeSeries s = SineSeries(2 * kDay, 0.3, 5);
  const ForecastInput input = InputFromTail(s, 24);
  DeepArForecaster::Options deepar;
  deepar.context_length = 24;
  deepar.horizon = 6;
  deepar.hidden_dim = 8;
  deepar.train.steps = 0;
  MlpForecaster::Options mlp;
  mlp.context_length = 24;
  mlp.horizon = 6;
  mlp.train.steps = 0;
  TftForecaster::Options tft;
  tft.context_length = 24;
  tft.horizon = 6;
  tft.d_model = 8;
  tft.train.steps = 0;
  Qb5000Forecaster::Options qb;
  qb.context_length = 24;
  qb.horizon = 6;
  qb.lstm_hidden = 8;
  qb.train.steps = 0;
  std::vector<std::unique_ptr<Forecaster>> models;
  models.push_back(std::make_unique<DeepArForecaster>(deepar));
  models.push_back(std::make_unique<MlpForecaster>(mlp));
  models.push_back(std::make_unique<TftForecaster>(tft));
  models.push_back(std::make_unique<Qb5000Forecaster>(qb));
  for (const auto& model : models) {
    EXPECT_EQ(model->Fit(s).code(), StatusCode::kInvalidArgument)
        << model->Name();
    EXPECT_EQ(model->Predict(input).status().code(),
              StatusCode::kFailedPrecondition)
        << model->Name() << " must stay unfitted";
  }
}

TEST(TrainBudgetTest, ZeroStepFineTuneIsInvalidArgumentAndKeepsWeights) {
  const ts::TimeSeries s = SineSeries(2 * kDay, 0.3, 6);
  const ForecastInput input = InputFromTail(s, 24);
  DeepArForecaster::Options deepar;
  deepar.context_length = 24;
  deepar.horizon = 6;
  deepar.hidden_dim = 8;
  deepar.num_samples = 20;
  deepar.train.steps = 5;
  deepar.fine_tune_steps = 0;
  MlpForecaster::Options mlp;
  mlp.context_length = 24;
  mlp.horizon = 6;
  mlp.train.steps = 5;
  mlp.fine_tune_steps = 0;
  std::vector<std::unique_ptr<Forecaster>> models;
  models.push_back(std::make_unique<DeepArForecaster>(deepar));
  models.push_back(std::make_unique<MlpForecaster>(mlp));
  for (const auto& model : models) {
    ASSERT_TRUE(model->Fit(s.Slice(0, s.size() - 10)).ok()) << model->Name();
    auto before = model->PredictSeeded(input, 3);
    ASSERT_TRUE(before.ok());
    EXPECT_EQ(model->IncrementalUpdate(s, 10).status().code(),
              StatusCode::kInvalidArgument)
        << model->Name();
    auto after = model->PredictSeeded(input, 3);
    ASSERT_TRUE(after.ok());
    for (size_t h = 0; h < before->Horizon(); ++h) {
      for (size_t q = 0; q < before->Levels().size(); ++q) {
        EXPECT_EQ(before->ValueAtIndex(h, q), after->ValueAtIndex(h, q))
            << model->Name();
      }
    }
  }
}

// ----------------------------------------------------------- RollForecasts ---

TEST(RollForecastsTest, AlignsActualsWithForecasts) {
  ts::TimeSeries s = SineSeries(6 * kDay, 0.0, 12);
  SeasonalNaiveForecaster::Options options;
  options.context_length = kDay;
  options.horizon = 24;
  options.season = kDay;
  SeasonalNaiveForecaster model(options);
  auto [train, test] = s.SplitTail(kDay);
  ASSERT_TRUE(model.Fit(train).ok());
  auto rolled = RollForecasts(model, train, test, /*stride=*/24);
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(rolled->forecasts.size(), rolled->actuals.size());
  EXPECT_EQ(rolled->forecasts.size(), kDay / 24);
  // Noiseless seasonal data: median forecast equals the actual.
  for (size_t i = 0; i < rolled->forecasts.size(); ++i) {
    for (size_t h = 0; h < 24; ++h) {
      EXPECT_NEAR(rolled->forecasts[i].Value(h, 0.5),
                  rolled->actuals[i][h], 1e-6);
    }
  }
}

TEST(RollForecastsTest, RejectsShortHistory) {
  ts::TimeSeries s = SineSeries(2 * kDay, 0.0, 13);
  SeasonalNaiveForecaster::Options options;
  options.context_length = kDay;
  options.horizon = 24;
  options.season = kDay;
  SeasonalNaiveForecaster model(options);
  ASSERT_TRUE(model.Fit(s).ok());
  ts::TimeSeries tiny = s.Slice(0, 10);
  EXPECT_FALSE(RollForecasts(model, tiny, s, 24).ok());
}

TEST(RollForecastsTest, RejectsZeroStride) {
  ts::TimeSeries s = SineSeries(2 * kDay, 0.0, 14);
  SeasonalNaiveForecaster::Options options;
  options.season = kDay;
  SeasonalNaiveForecaster model(options);
  ASSERT_TRUE(model.Fit(s).ok());
  EXPECT_FALSE(RollForecasts(model, s, s, 0).ok());
}

}  // namespace
}  // namespace rpas::forecast
