#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/evaluator.h"
#include "core/manager.h"
#include "core/online_loop.h"
#include "core/scaling_config.h"
#include "core/strategies.h"
#include "core/uncertainty.h"
#include "forecast/seasonal_naive.h"
#include "ts/quantile_forecast.h"

namespace rpas::core {
namespace {

using ts::QuantileForecast;

ScalingConfig UnitConfig() {
  ScalingConfig config;
  config.theta = 1.0;
  config.min_nodes = 1;
  return config;
}

// ------------------------------------------------------------ Uncertainty ---

TEST(UncertaintyTest, SymmetricSpreadMatchesHandComputation) {
  // Levels {0.1, 0.5, 0.9}, values {8, 10, 12} at one step; standard
  // pinball orientation against the median (see uncertainty.cc for the
  // Eq. 8 sign-convention note):
  //   0.1 term: indicator(8 < 10) = 1 -> (0.1 - 1) * (8 - 10) = 1.8
  //   0.5 term: 0
  //   0.9 term: indicator 0 -> 0.9 * (12 - 10) = 1.8
  // U = 3.6.
  QuantileForecast fc({0.1, 0.5, 0.9}, {{8.0, 10.0, 12.0}});
  EXPECT_NEAR(QuantileUncertainty(fc, 0), 3.6, 1e-12);
}

TEST(UncertaintyTest, DegenerateForecastHasZeroUncertainty) {
  QuantileForecast fc({0.1, 0.5, 0.9}, {{10.0, 10.0, 10.0}});
  EXPECT_DOUBLE_EQ(QuantileUncertainty(fc, 0), 0.0);
}

TEST(UncertaintyTest, WiderSpreadLargerMagnitude) {
  QuantileForecast narrow({0.1, 0.5, 0.9}, {{9.0, 10.0, 11.0}});
  QuantileForecast wide({0.1, 0.5, 0.9}, {{5.0, 10.0, 15.0}});
  EXPECT_GT(std::fabs(QuantileUncertainty(wide, 0)),
            std::fabs(QuantileUncertainty(narrow, 0)));
}

TEST(UncertaintyTest, PerStepVector) {
  QuantileForecast fc({0.1, 0.5, 0.9},
                      {{9.0, 10.0, 11.0}, {5.0, 10.0, 15.0}});
  auto u = QuantileUncertaintyPerStep(fc);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_GT(std::fabs(u[1]), std::fabs(u[0]));
}

// ------------------------------------------------------------ RequiredNodes ---

TEST(ScalingConfigTest, RequiredNodesCeiling) {
  ScalingConfig config = UnitConfig();
  EXPECT_EQ(RequiredNodes(0.0, config), 1);   // min_nodes floor
  EXPECT_EQ(RequiredNodes(1.0, config), 1);   // exact
  EXPECT_EQ(RequiredNodes(1.01, config), 2);
  EXPECT_EQ(RequiredNodes(7.3, config), 8);
}

TEST(ScalingConfigTest, MaxNodesCap) {
  ScalingConfig config = UnitConfig();
  config.max_nodes = 3;
  EXPECT_EQ(RequiredNodes(100.0, config), 3);
}

TEST(ScalingConfigTest, RequiredNodesIsTotalOverDoubles) {
  // Unknown or unbounded demand saturates to INT_MAX before the max_nodes
  // cap; demand at or below the floor gives min_nodes; in-range needs are
  // the plain ceiling.
  constexpr int kIntMax = std::numeric_limits<int>::max();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    double workload;
    int uncapped;  // max_nodes = 0
    int capped;    // max_nodes = 100
  };
  const Case cases[] = {
      {1e300, kIntMax, 100},
      {inf, kIntMax, 100},
      {nan, kIntMax, 100},
      {-inf, 1, 1},
      {-1e300, 1, 1},
      {2147483646.0, 2147483646, 100},  // largest need below INT_MAX
      {2147483647.0, kIntMax, 100},     // exactly INT_MAX
      {2147483647.5, kIntMax, 100},     // ceiling one past INT_MAX
      {2147483648.0, kIntMax, 100},
      {7.3, 8, 8},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.workload);
    ScalingConfig config = UnitConfig();
    EXPECT_EQ(RequiredNodes(c.workload, config), c.uncapped);
    config.max_nodes = 100;
    EXPECT_EQ(RequiredNodes(c.workload, config), c.capped);
  }
}

TEST(EvaluateAllocationTest, UnboundedDemandIsUnderProvisioned) {
  // No node count absorbs a 1e300 workload: that step is under-provisioned,
  // never counted as exactly provisioned.
  const ProvisioningReport report =
      EvaluateAllocation({1e300, 1.0}, {1, 1}, UnitConfig());
  EXPECT_EQ(report.under_provision_rate, 0.5);
  EXPECT_EQ(report.over_provision_rate, 0.0);
}

TEST(OnlineLoopFallbackTest, UnboundedObservedPeakHoldsSaturatedTarget) {
  // Every round's forecaster fault outlasts the retries, so the loop runs
  // on the reactive fallback sized from the observed peak. A 1e300
  // observation must saturate the held target instead of wrapping it to
  // the current node count.
  ts::TimeSeries series;
  series.values = {1.0, 1.0, 1.0, 1e300, 1.0, 1.0, 1.0, 1.0};
  forecast::SeasonalNaiveForecaster model(
      forecast::SeasonalNaiveForecaster::Options{4, 4, 2, {}});
  RobustAutoScalingManager manager(
      &model, std::make_unique<RobustQuantileAllocator>(0.9), UnitConfig());
  OnlineLoopOptions options;
  options.cluster.max_nodes = 8;
  options.faults.forecaster_timeout_rate = 1.0;
  options.faults.forecaster_timeout_attempts = 3;
  auto result = RunOnlineLoop(manager, series, 4, 4, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->fallback_plans, result->plans_made);
  EXPECT_EQ(result->allocation,
            std::vector<int>(4, std::numeric_limits<int>::max()));
  for (const simdb::StepStats& step : result->steps) {
    EXPECT_EQ(step.target_nodes, 8);  // the cluster's own cap applies
  }
}

// --------------------------------------------------------------- Reactive ---

TEST(ReactiveMaxTest, UsesWindowMaximum) {
  ReactiveMaxStrategy strategy(3);
  // History: only the last 3 values {2, 9, 4} matter -> max 9.
  EXPECT_EQ(strategy.Decide({1.0, 20.0, 2.0, 9.0, 4.0}, UnitConfig()), 9);
}

TEST(ReactiveMaxTest, ShortHistoryUsesAllOfIt) {
  ReactiveMaxStrategy strategy(10);
  EXPECT_EQ(strategy.Decide({3.2}, UnitConfig()), 4);
}

TEST(ReactiveAvgTest, WeightsRecentMoreHeavily) {
  ReactiveAvgStrategy strategy(6, 6.0);
  // Rising workload: the weighted average must be between min and max, and
  // higher than the plain mean of the oldest values.
  const int rising = strategy.Decide({1, 1, 1, 1, 1, 10}, UnitConfig());
  const int falling = strategy.Decide({10, 1, 1, 1, 1, 1}, UnitConfig());
  EXPECT_GE(rising, falling);
}

TEST(ReactiveAvgTest, ConstantWorkloadIsExact) {
  ReactiveAvgStrategy strategy(6, 6.0);
  EXPECT_EQ(strategy.Decide({2.0, 2.0, 2.0, 2.0}, UnitConfig()), 2);
}

TEST(ReactiveAvgTest, LagsBehindSpikes) {
  // The core weakness the paper exploits (Fig. 9): an abrupt spike is
  // averaged away, so the reactive-avg node count undershoots demand.
  ReactiveAvgStrategy strategy(6, 6.0);
  const int nodes = strategy.Decide({1, 1, 1, 1, 1, 12}, UnitConfig());
  EXPECT_LT(nodes, 12);
}

// ------------------------------------------------------------- Allocators ---

QuantileForecast ThreeLevelForecast() {
  // Two steps; levels 0.5 / 0.8 / 0.9.
  return QuantileForecast({0.5, 0.8, 0.9},
                          {{2.0, 3.0, 4.0}, {5.0, 6.5, 9.0}});
}

TEST(PointAllocatorTest, UsesMedian) {
  PointForecastAllocator allocator;
  auto alloc = allocator.Allocate(ThreeLevelForecast(), UnitConfig());
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(*alloc, (std::vector<int>{2, 5}));
}

TEST(RobustAllocatorTest, UsesRequestedQuantile) {
  RobustQuantileAllocator allocator(0.9);
  auto alloc = allocator.Allocate(ThreeLevelForecast(), UnitConfig());
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(*alloc, (std::vector<int>{4, 9}));
}

TEST(RobustAllocatorTest, InterpolatesOffGridLevels) {
  RobustQuantileAllocator allocator(0.65);  // halfway 0.5 -> 0.8
  auto alloc = allocator.Allocate(ThreeLevelForecast(), UnitConfig());
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ((*alloc)[0], 3);  // 2.5 -> ceil 3
}

TEST(RobustAllocatorTest, HigherTauNeverAllocatesFewer) {
  // Core robustness property (paper Fig. 10): conservatism is monotone.
  const QuantileForecast fc = ThreeLevelForecast();
  const ScalingConfig config = UnitConfig();
  std::vector<int> prev;
  for (double tau : {0.5, 0.6, 0.7, 0.8, 0.85, 0.9}) {
    auto alloc = RobustQuantileAllocator(tau).Allocate(fc, config);
    ASSERT_TRUE(alloc.ok());
    if (!prev.empty()) {
      for (size_t t = 0; t < prev.size(); ++t) {
        EXPECT_GE((*alloc)[t], prev[t]) << "tau=" << tau << " t=" << t;
      }
    }
    prev = *alloc;
  }
}

TEST(RobustAllocatorTest, NegativeForecastClampedToMinNodes) {
  QuantileForecast fc({0.5, 0.9}, {{-3.0, -1.0}});
  RobustQuantileAllocator allocator(0.9);
  auto alloc = allocator.Allocate(fc, UnitConfig());
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ((*alloc)[0], 1);
}

TEST(AdaptiveAllocatorTest, PicksLevelByUncertainty) {
  AdaptiveQuantileAllocator allocator(0.6, 0.9, /*rho=*/1.0);
  EXPECT_DOUBLE_EQ(allocator.LevelForUncertainty(0.5), 0.6);
  EXPECT_DOUBLE_EQ(allocator.LevelForUncertainty(1.0), 0.9);
  EXPECT_DOUBLE_EQ(allocator.LevelForUncertainty(5.0), 0.9);
}

TEST(AdaptiveAllocatorTest, StaircaseLevels) {
  AdaptiveQuantileAllocator allocator({0.5, 0.7, 0.9}, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(allocator.LevelForUncertainty(0.0), 0.5);
  EXPECT_DOUBLE_EQ(allocator.LevelForUncertainty(1.5), 0.7);
  EXPECT_DOUBLE_EQ(allocator.LevelForUncertainty(99.0), 0.9);
}

TEST(AdaptiveAllocatorTest, BoundedByItsTwoLevels) {
  // Allocation always lies between the tau1-fixed and tau2-fixed plans.
  const QuantileForecast fc = ThreeLevelForecast();
  const ScalingConfig config = UnitConfig();
  AdaptiveQuantileAllocator adaptive(0.5, 0.9, 1.8);
  auto a = adaptive.Allocate(fc, config);
  auto lo = RobustQuantileAllocator(0.5).Allocate(fc, config);
  auto hi = RobustQuantileAllocator(0.9).Allocate(fc, config);
  ASSERT_TRUE(a.ok() && lo.ok() && hi.ok());
  for (size_t t = 0; t < a->size(); ++t) {
    EXPECT_GE((*a)[t], (*lo)[t]);
    EXPECT_LE((*a)[t], (*hi)[t]);
  }
}

TEST(AdaptiveAllocatorTest, ZeroThresholdAlwaysConservative) {
  // U is <= 0 for degenerate forecasts... use rho very negative so every
  // step exceeds it -> always the conservative level.
  const QuantileForecast fc = ThreeLevelForecast();
  AdaptiveQuantileAllocator adaptive(0.5, 0.9, -1e9);
  auto a = adaptive.Allocate(fc, UnitConfig());
  auto hi = RobustQuantileAllocator(0.9).Allocate(fc, UnitConfig());
  ASSERT_TRUE(a.ok() && hi.ok());
  EXPECT_EQ(*a, *hi);
}

TEST(AdaptiveAllocatorTest, HugeThresholdAlwaysOptimistic) {
  const QuantileForecast fc = ThreeLevelForecast();
  AdaptiveQuantileAllocator adaptive(0.5, 0.9, 1e9);
  auto a = adaptive.Allocate(fc, UnitConfig());
  auto lo = RobustQuantileAllocator(0.5).Allocate(fc, UnitConfig());
  ASSERT_TRUE(a.ok() && lo.ok());
  EXPECT_EQ(*a, *lo);
}

// ---------------------------------------------------------------- Padding ---

TEST(PaddingTest, NoObservationsMeansNoPad) {
  PaddingEnhancement padding(PaddingEnhancement::Options{});
  EXPECT_DOUBLE_EQ(padding.CurrentPad(), 0.0);
  auto padded = padding.Pad({1.0, 2.0});
  EXPECT_EQ(padded, (std::vector<double>{1.0, 2.0}));
}

TEST(PaddingTest, TracksUnderestimationErrors) {
  PaddingEnhancement padding(
      PaddingEnhancement::Options{.error_window = 10, .quantile = 1.0});
  padding.Observe(/*actual=*/10.0, /*predicted=*/8.0);  // under by 2
  padding.Observe(/*actual=*/5.0, /*predicted=*/9.0);   // over (no error)
  EXPECT_DOUBLE_EQ(padding.CurrentPad(), 2.0);
}

TEST(PaddingTest, QuantileOfErrors) {
  PaddingEnhancement padding(
      PaddingEnhancement::Options{.error_window = 10, .quantile = 0.5});
  padding.Observe(10.0, 9.0);  // 1
  padding.Observe(10.0, 7.0);  // 3
  padding.Observe(10.0, 5.0);  // 5
  EXPECT_DOUBLE_EQ(padding.CurrentPad(), 3.0);
}

TEST(PaddingTest, WindowEvictsOldErrors) {
  PaddingEnhancement padding(
      PaddingEnhancement::Options{.error_window = 2, .quantile = 1.0});
  padding.Observe(10.0, 0.0);  // 10
  padding.Observe(10.0, 9.0);  // 1
  padding.Observe(10.0, 9.5);  // 0.5, evicts the 10
  EXPECT_DOUBLE_EQ(padding.CurrentPad(), 1.0);
}

TEST(PaddingTest, PadAddsToEveryStep) {
  PaddingEnhancement padding(
      PaddingEnhancement::Options{.error_window = 4, .quantile = 1.0});
  padding.Observe(10.0, 8.5);
  auto padded = padding.Pad({1.0, 2.0});
  EXPECT_DOUBLE_EQ(padded[0], 2.5);
  EXPECT_DOUBLE_EQ(padded[1], 3.5);
}

// -------------------------------------------------------------- Evaluator ---

TEST(EvaluatorTest, RatesComputedCorrectly) {
  // workloads {2, 2, 2}; theta 1 -> required {2, 2, 2}.
  // allocation {1, 2, 3} -> under, exact, over.
  auto report =
      EvaluateAllocation({2.0, 2.0, 2.0}, {1, 2, 3}, UnitConfig());
  EXPECT_NEAR(report.under_provision_rate, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(report.over_provision_rate, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(report.mean_allocated_nodes, 2.0, 1e-12);
  EXPECT_NEAR(report.mean_required_nodes, 2.0, 1e-12);
}

TEST(EvaluatorTest, EmptyInputIsZeroed) {
  auto report = EvaluateAllocation({}, {}, UnitConfig());
  EXPECT_EQ(report.num_steps, 0u);
  EXPECT_DOUBLE_EQ(report.under_provision_rate, 0.0);
}

ts::TimeSeries StepSeries() {
  ts::TimeSeries s;
  // Flat then a spike at index 8.
  s.values = {1, 1, 1, 1, 1, 1, 1, 1, 6, 1, 1, 1};
  s.step_minutes = 10.0;
  return s;
}

TEST(EvaluatorTest, ReactiveRunLagsSpike) {
  ts::TimeSeries s = StepSeries();
  ReactiveMaxStrategy strategy(3);
  auto alloc = RunReactiveStrategy(strategy, s, /*eval_start=*/4,
                                   /*num_steps=*/8, UnitConfig());
  ASSERT_TRUE(alloc.ok());
  // At the spike step (index 8 -> alloc position 4) the reactive strategy
  // only saw flat history, so it under-provisions.
  EXPECT_LT((*alloc)[4], 6);
  // The step *after* the spike it overreacts.
  EXPECT_EQ((*alloc)[5], 6);
}

TEST(EvaluatorTest, ReactiveRunRejectsBadRange) {
  ts::TimeSeries s = StepSeries();
  ReactiveMaxStrategy strategy(3);
  EXPECT_FALSE(RunReactiveStrategy(strategy, s, 0, 4, UnitConfig()).ok());
  EXPECT_FALSE(RunReactiveStrategy(strategy, s, 4, 100, UnitConfig()).ok());
  EXPECT_FALSE(RunReactiveStrategy(strategy, s, 4, 0, UnitConfig()).ok());
}

class TestForecasterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // A long daily-cycle series the seasonal-naive forecaster nails.
    series_.step_minutes = 10.0;
    const size_t day = 144;
    for (size_t i = 0; i < 6 * day; ++i) {
      const double phase =
          2.0 * M_PI * static_cast<double>(i % day) / static_cast<double>(day);
      series_.values.push_back(5.0 + 3.0 * std::sin(phase));
    }
    forecast::SeasonalNaiveForecaster::Options options;
    options.context_length = day;
    options.horizon = 36;
    options.season = day;
    model_ = std::make_unique<forecast::SeasonalNaiveForecaster>(options);
    ASSERT_TRUE(model_->Fit(series_.Slice(0, 4 * day)).ok());
  }

  ts::TimeSeries series_;
  std::unique_ptr<forecast::SeasonalNaiveForecaster> model_;
};

TEST_F(TestForecasterFixture, PredictiveRunCoversRange) {
  RobustQuantileAllocator allocator(0.9);
  auto alloc = RunPredictiveStrategy(*model_, allocator, series_,
                                     /*eval_start=*/4 * 144,
                                     /*num_steps=*/100, UnitConfig());
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->size(), 100u);
  for (int nodes : *alloc) {
    EXPECT_GE(nodes, 1);
  }
}

TEST_F(TestForecasterFixture, RobustCoversMoreThanPoint) {
  RobustQuantileAllocator robust(0.9);
  PointForecastAllocator point;
  auto ra = RunPredictiveStrategy(*model_, robust, series_, 4 * 144, 144,
                                  UnitConfig());
  auto pa = RunPredictiveStrategy(*model_, point, series_, 4 * 144, 144,
                                  UnitConfig());
  ASSERT_TRUE(ra.ok() && pa.ok());
  long robust_total = 0;
  long point_total = 0;
  for (size_t i = 0; i < ra->size(); ++i) {
    robust_total += (*ra)[i];
    point_total += (*pa)[i];
  }
  EXPECT_GE(robust_total, point_total);
}

TEST_F(TestForecasterFixture, PaddedRunProducesPlan) {
  PaddingEnhancement padding(
      PaddingEnhancement::Options{.error_window = 36, .quantile = 0.9});
  auto alloc = RunPaddedPointStrategy(*model_, &padding, series_, 4 * 144,
                                      72, UnitConfig());
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->size(), 72u);
  // After the first window the pad has observations.
  EXPECT_GE(padding.CurrentPad(), 0.0);
}

// ----------------------------------------------------------------- Manager ---

TEST(SmootherTest, LimitsStepDelta) {
  ScalingSmoother smoother({.max_step_delta = 2, .scale_in_cooldown = 0});
  auto out = smoother.Smooth({10, 10, 10}, /*current=*/1);
  EXPECT_EQ(out, (std::vector<int>{3, 5, 7}));
}

TEST(SmootherTest, CooldownBlocksRepeatedScaleIn) {
  ScalingSmoother smoother({.max_step_delta = 0, .scale_in_cooldown = 2});
  // Plan wants to drop immediately and keep dropping.
  auto out = smoother.Smooth({5, 4, 3, 2, 1}, /*current=*/5);
  // First drop allowed (5 -> 4... wait plan[0] is 5 = no change), then the
  // drop at 4 starts a cooldown of 2 steps.
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[1], 4);   // drop allowed, cooldown starts
  EXPECT_EQ(out[2], 4);   // held
  EXPECT_EQ(out[3], 4);   // held
  EXPECT_EQ(out[4], 1);   // cooldown expired
}

TEST(SmootherTest, ScaleOutNotDelayed) {
  ScalingSmoother smoother({.max_step_delta = 0, .scale_in_cooldown = 5});
  auto out = smoother.Smooth({3, 2, 8}, /*current=*/3);
  EXPECT_EQ(out[2], 8);  // scale-out passes through cooldown
}

TEST_F(TestForecasterFixture, ManagerProducesPlan) {
  RobustAutoScalingManager manager(
      model_.get(), std::make_unique<RobustQuantileAllocator>(0.9),
      UnitConfig());
  auto plan = manager.PlanNext(series_.Slice(0, 5 * 144));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->nodes.size(), model_->Horizon());
  EXPECT_EQ(plan->uncertainty.size(), model_->Horizon());
  for (int n : plan->nodes) {
    EXPECT_GE(n, 1);
  }
}

TEST_F(TestForecasterFixture, ManagerRejectsShortHistory) {
  RobustAutoScalingManager manager(
      model_.get(), std::make_unique<RobustQuantileAllocator>(0.9),
      UnitConfig());
  EXPECT_FALSE(manager.PlanNext(series_.Slice(0, 10)).ok());
}

TEST_F(TestForecasterFixture, ManagerSmootherLimitsJumps) {
  RobustAutoScalingManager manager(
      model_.get(), std::make_unique<RobustQuantileAllocator>(0.9),
      UnitConfig());
  manager.SetSmoother({.max_step_delta = 1, .scale_in_cooldown = 0});
  auto plan = manager.PlanNext(series_.Slice(0, 5 * 144), /*current=*/1);
  ASSERT_TRUE(plan.ok());
  int prev = 1;
  for (int n : plan->nodes) {
    EXPECT_LE(std::abs(n - prev), 1);
    prev = n;
  }
}

}  // namespace
}  // namespace rpas::core
