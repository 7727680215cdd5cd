#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/rng.h"
#include "ts/metrics.h"
#include "ts/quantile_forecast.h"
#include "ts/scaler.h"
#include "ts/time_series.h"
#include "ts/window.h"

namespace rpas::ts {
namespace {

TimeSeries MakeSeries(std::vector<double> values) {
  TimeSeries s;
  s.values = std::move(values);
  s.step_minutes = 10.0;
  s.name = "test";
  return s;
}

// -------------------------------------------------------------- TimeSeries ---

TEST(TimeSeriesTest, BasicStats) {
  TimeSeries s = MakeSeries({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 4.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
  EXPECT_NEAR(s.Stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(TimeSeriesTest, Slice) {
  TimeSeries s = MakeSeries({0, 1, 2, 3, 4});
  TimeSeries sub = s.Slice(1, 4);
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub[0], 1.0);
  EXPECT_DOUBLE_EQ(sub[2], 3.0);
  EXPECT_DOUBLE_EQ(sub.step_minutes, 10.0);
}

TEST(TimeSeriesTest, SplitTail) {
  TimeSeries s = MakeSeries({0, 1, 2, 3, 4});
  auto [head, tail] = s.SplitTail(2);
  EXPECT_EQ(head.size(), 3u);
  EXPECT_EQ(tail.size(), 2u);
  EXPECT_DOUBLE_EQ(tail[0], 3.0);
}

TEST(TimeSeriesTest, AggregateBlocks) {
  TimeSeries s = MakeSeries({1, 3, 5, 7, 9});  // block 2: (2, 6); drops 9
  TimeSeries agg = AggregateBlocks(s, 2);
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_DOUBLE_EQ(agg[0], 2.0);
  EXPECT_DOUBLE_EQ(agg[1], 6.0);
  EXPECT_DOUBLE_EQ(agg.step_minutes, 20.0);
}

TEST(TimeSeriesTest, CsvRoundTrip) {
  const std::string path = "/tmp/rpas_ts_test.csv";
  TimeSeries s = MakeSeries({1.5, 2.5, 3.5});
  ASSERT_TRUE(SaveTimeSeriesCsv(path, s).ok());
  auto loaded = LoadTimeSeriesCsv(path, "value", 10.0);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_DOUBLE_EQ((*loaded)[1], 2.5);
  std::remove(path.c_str());
}

// A workload file with one non-finite value cell is rejected where it is
// read, naming the row, instead of reaching a scaler or a model as NaN/Inf.
TEST(TimeSeriesTest, CsvNonFiniteValueRejected) {
  const std::string path = "/tmp/rpas_ts_test_nonfinite.csv";
  for (const char* cell : {"nan", "inf", "-Infinity", "NaN"}) {
    SCOPED_TRACE(cell);
    {
      std::ofstream out(path);
      out << "step,value\n0,1.5\n1,2.5\n2," << cell << "\n3,4.5\n";
    }
    auto loaded = LoadTimeSeriesCsv(path, "value", 10.0);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    const std::string message = loaded.status().message();
    EXPECT_NE(message.find("column 'value', data row 3"), std::string::npos)
        << message;
    EXPECT_NE(message.find(cell), std::string::npos) << message;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------------ Scaler ---

TEST(ScalerTest, IdentityDefault) {
  AffineScaler s;
  EXPECT_DOUBLE_EQ(s.Transform(5.0), 5.0);
  EXPECT_DOUBLE_EQ(s.Inverse(5.0), 5.0);
}

TEST(ScalerTest, StandardScaler) {
  AffineScaler s = AffineScaler::FitStandard({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(s.shift(), 4.0);
  EXPECT_NEAR(s.scale(), 2.0, 1e-12);
  EXPECT_NEAR(s.Transform(6.0), 1.0, 1e-12);
  EXPECT_NEAR(s.Inverse(s.Transform(3.7)), 3.7, 1e-12);
}

TEST(ScalerTest, MeanAbsScaler) {
  AffineScaler s = AffineScaler::FitMeanAbs({-2.0, 4.0});
  EXPECT_DOUBLE_EQ(s.shift(), 0.0);
  EXPECT_DOUBLE_EQ(s.scale(), 3.0);
}

TEST(ScalerTest, MinMaxScaler) {
  AffineScaler s = AffineScaler::FitMinMax({10.0, 20.0, 15.0});
  EXPECT_DOUBLE_EQ(s.Transform(10.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Transform(20.0), 1.0);
}

TEST(ScalerTest, ConstantSeriesDoesNotDivideByZero) {
  AffineScaler s = AffineScaler::FitStandard({3.0, 3.0, 3.0});
  EXPECT_GT(s.scale(), 0.0);
  EXPECT_TRUE(std::isfinite(s.Transform(3.0)));
}

TEST(ScalerTest, VectorTransformRoundTrip) {
  AffineScaler s = AffineScaler::FitStandard({1.0, 5.0, 9.0});
  std::vector<double> xs = {2.0, 4.0, 8.0};
  auto round = s.Inverse(s.Transform(xs));
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(round[i], xs[i], 1e-12);
  }
}

// ---------------------------------------------------------- WindowDataset ---

TEST(WindowTest, EnumeratesAllWindows) {
  TimeSeries s = MakeSeries({0, 1, 2, 3, 4, 5});
  WindowDataset ds(s, /*context=*/2, /*horizon=*/1);
  // begins: 0,1,2,3 -> 4 windows.
  ASSERT_EQ(ds.size(), 4u);
  EXPECT_EQ(ds[0].context, (std::vector<double>{0, 1}));
  EXPECT_EQ(ds[0].target, (std::vector<double>{2}));
  EXPECT_EQ(ds[3].context, (std::vector<double>{3, 4}));
  EXPECT_EQ(ds[3].target, (std::vector<double>{5}));
}

TEST(WindowTest, StrideSkipsWindows) {
  TimeSeries s = MakeSeries({0, 1, 2, 3, 4, 5, 6, 7});
  WindowDataset ds(s, 2, 2, /*stride=*/2);
  ASSERT_EQ(ds.size(), 3u);  // begins 0, 2, 4
  EXPECT_EQ(ds[1].begin, 2u);
}

TEST(WindowTest, TooShortSeriesIsEmpty) {
  TimeSeries s = MakeSeries({1, 2});
  WindowDataset ds(s, 2, 2);
  EXPECT_TRUE(ds.empty());
}

TEST(WindowTest, MatricesMatchWindows) {
  TimeSeries s = MakeSeries({0, 1, 2, 3, 4});
  WindowDataset ds(s, 2, 1);
  auto ctx = ds.ContextMatrix();
  auto tgt = ds.TargetMatrix();
  EXPECT_EQ(ctx.rows(), ds.size());
  EXPECT_EQ(ctx.cols(), 2u);
  EXPECT_EQ(tgt.cols(), 1u);
  EXPECT_DOUBLE_EQ(ctx(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(tgt(1, 0), 3.0);
}

TEST(WindowTest, SampleIndicesUniqueAndBounded) {
  TimeSeries s = MakeSeries(std::vector<double>(50, 1.0));
  WindowDataset ds(s, 4, 2);
  Rng rng(3);
  auto indices = ds.SampleIndices(10, &rng);
  ASSERT_EQ(indices.size(), 10u);
  std::sort(indices.begin(), indices.end());
  EXPECT_EQ(std::unique(indices.begin(), indices.end()), indices.end());
  EXPECT_LT(indices.back(), ds.size());
}

TEST(WindowTest, SampleMoreThanAvailableReturnsAll) {
  TimeSeries s = MakeSeries({0, 1, 2, 3, 4});
  WindowDataset ds(s, 2, 1);
  Rng rng(4);
  auto indices = ds.SampleIndices(100, &rng);
  EXPECT_EQ(indices.size(), ds.size());
}

TEST(WindowTest, BatchBuildsAlignedMatrices) {
  TimeSeries s = MakeSeries({0, 1, 2, 3, 4, 5});
  WindowDataset ds(s, 2, 1);
  tensor::Matrix ctx;
  tensor::Matrix tgt;
  ds.Batch({0, 2}, &ctx, &tgt);
  EXPECT_EQ(ctx.rows(), 2u);
  EXPECT_DOUBLE_EQ(ctx(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(tgt(1, 0), 4.0);
}

// ------------------------------------------------------- QuantileForecast ---

QuantileForecast MakeForecast() {
  // Two steps, levels 0.1/0.5/0.9.
  return QuantileForecast({0.1, 0.5, 0.9},
                          {{1.0, 2.0, 3.0}, {10.0, 20.0, 30.0}});
}

TEST(QuantileForecastTest, ExactLevelLookup) {
  QuantileForecast fc = MakeForecast();
  EXPECT_DOUBLE_EQ(fc.Value(0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(fc.Value(1, 0.9), 30.0);
  EXPECT_EQ(fc.Horizon(), 2u);
}

TEST(QuantileForecastTest, InterpolatesBetweenLevels) {
  QuantileForecast fc = MakeForecast();
  EXPECT_DOUBLE_EQ(fc.Value(0, 0.7), 2.5);  // halfway 0.5 -> 0.9
  EXPECT_DOUBLE_EQ(fc.Value(1, 0.3), 15.0);
}

TEST(QuantileForecastTest, ClampsOutsideStoredLevels) {
  QuantileForecast fc = MakeForecast();
  EXPECT_DOUBLE_EQ(fc.Value(0, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(fc.Value(0, 0.99), 3.0);
}

TEST(QuantileForecastTest, MedianAndTrajectory) {
  QuantileForecast fc = MakeForecast();
  EXPECT_EQ(fc.Median(), (std::vector<double>{2.0, 20.0}));
  EXPECT_EQ(fc.Trajectory(0.9), (std::vector<double>{3.0, 30.0}));
}

TEST(QuantileForecastTest, LevelIndex) {
  QuantileForecast fc = MakeForecast();
  EXPECT_EQ(fc.LevelIndex(0.5), 1);
  EXPECT_EQ(fc.LevelIndex(0.42), -1);
}

TEST(QuantileForecastTest, SortQuantilesFixesCrossing) {
  QuantileForecast fc({0.1, 0.5, 0.9}, {{3.0, 2.0, 4.0}});
  fc.SortQuantilesPerStep();
  EXPECT_DOUBLE_EQ(fc.ValueAtIndex(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(fc.ValueAtIndex(0, 1), 3.0);  // raised to monotone
  EXPECT_DOUBLE_EQ(fc.ValueAtIndex(0, 2), 4.0);
}

// ----------------------------------------------------------------- Metrics ---

TEST(MetricsTest, PinballLossKnownValues) {
  // Underestimation (y > yhat): loss = tau * (y - yhat).
  EXPECT_DOUBLE_EQ(PinballLoss(0.9, 10.0, 8.0), 0.9 * 2.0);
  // Overestimation (y < yhat): loss = (1 - tau) * (yhat - y).
  EXPECT_DOUBLE_EQ(PinballLoss(0.9, 8.0, 10.0), 0.1 * 2.0);
  EXPECT_DOUBLE_EQ(PinballLoss(0.5, 4.0, 4.0), 0.0);
}

TEST(MetricsTest, PinballLossNonNegative) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double tau = rng.Uniform(0.05, 0.95);
    EXPECT_GE(PinballLoss(tau, rng.Normal(), rng.Normal()), 0.0);
  }
}

TEST(MetricsTest, PerfectForecastScoresZero) {
  QuantileForecast fc({0.5}, {{5.0}, {6.0}});
  auto report = EvaluateForecasts({fc}, {{5.0, 6.0}}, {0.5});
  EXPECT_DOUBLE_EQ(report.mse, 0.0);
  EXPECT_DOUBLE_EQ(report.mae, 0.0);
  EXPECT_DOUBLE_EQ(report.wql.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(report.mean_wql, 0.0);
}

TEST(MetricsTest, CoverageCountsExceedances) {
  // Forecast at 0.9 = 10; actuals 5 (covered) and 15 (not covered).
  QuantileForecast fc({0.5, 0.9}, {{8.0, 10.0}, {8.0, 10.0}});
  auto report = EvaluateForecasts({fc}, {{5.0, 15.0}}, {0.9});
  EXPECT_DOUBLE_EQ(report.coverage.at(0.9), 0.5);
}

TEST(MetricsTest, WqlMatchesHandComputation) {
  // One step, actual 10, forecast at 0.9 = 8 -> pinball = 0.9*2 = 1.8.
  // wQL = 2 * 1.8 / 10 = 0.36.
  QuantileForecast fc({0.5, 0.9}, {{9.0, 8.0}});
  auto report = EvaluateForecasts({fc}, {{10.0}}, {0.9});
  EXPECT_NEAR(report.wql.at(0.9), 0.36, 1e-12);
}

TEST(MetricsTest, MseUsesMedianTrajectory) {
  QuantileForecast fc({0.5, 0.9}, {{4.0, 100.0}});
  auto report = EvaluateForecasts({fc}, {{6.0}}, {0.5});
  EXPECT_DOUBLE_EQ(report.mse, 4.0);
  EXPECT_DOUBLE_EQ(report.mae, 2.0);
}

TEST(MetricsTest, PerStepLosses) {
  QuantileForecast fc({0.5}, {{5.0}, {7.0}});
  auto ql = PerStepQuantileLoss(fc, {5.0, 9.0});
  ASSERT_EQ(ql.size(), 2u);
  EXPECT_DOUBLE_EQ(ql[0], 0.0);
  EXPECT_DOUBLE_EQ(ql[1], 0.5 * 2.0);
  auto se = PerStepSquaredError(fc, {5.0, 9.0});
  EXPECT_DOUBLE_EQ(se[0], 0.0);
  EXPECT_DOUBLE_EQ(se[1], 4.0);
}

TEST(MetricsTest, PearsonCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

// Property sweep: a forecast that always over-predicts has coverage 1 at
// every level; one that always under-predicts has coverage 0.
class CoverageSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(CoverageSweepTest, ExtremeForecastsHaveExtremeCoverage) {
  const double tau = GetParam();
  QuantileForecast over({tau}, {{100.0}, {100.0}});
  QuantileForecast under({tau}, {{-100.0}, {-100.0}});
  auto report_over = EvaluateForecasts({over}, {{1.0, 2.0}}, {tau});
  auto report_under = EvaluateForecasts({under}, {{1.0, 2.0}}, {tau});
  EXPECT_DOUBLE_EQ(report_over.coverage.at(tau), 1.0);
  EXPECT_DOUBLE_EQ(report_under.coverage.at(tau), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Levels, CoverageSweepTest,
                         ::testing::Values(0.1, 0.5, 0.9));

}  // namespace
}  // namespace rpas::ts
