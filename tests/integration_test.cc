// End-to-end integration tests: synthetic cluster trace -> probabilistic
// forecaster -> robust auto-scaling -> provisioning metrics / simulator
// replay. These exercise the full pipeline the paper's evaluation uses and
// assert its *qualitative* findings (robust > point > reactive on
// under-provisioning; higher tau trades under- for over-provisioning).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/evaluator.h"
#include "core/manager.h"
#include "core/strategies.h"
#include "forecast/tft.h"
#include "simdb/replay.h"
#include "trace/generator.h"

namespace rpas {
namespace {

constexpr size_t kDay = 144;

class PipelineFixture : public ::testing::Test {
 protected:
  static constexpr size_t kContext = 48;
  static constexpr size_t kHorizon = 24;
  static constexpr size_t kEvalSteps = 2 * kDay;

  void SetUp() override {
    trace::SyntheticTraceGenerator gen(trace::AlibabaProfile(), 2024);
    series_ = gen.GenerateCpu(10 * kDay);

    forecast::TftForecaster::Options options;
    options.context_length = kContext;
    options.horizon = kHorizon;
    options.d_model = 8;
    options.num_heads = 2;
    options.batch_size = 2;
    options.train.steps = 200;
    options.train.lr = 5e-3;
    options.levels = {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99};
    model_ = std::make_unique<forecast::TftForecaster>(options);

    eval_start_ = series_.size() - kEvalSteps;
    ts::TimeSeries train = series_.Slice(0, eval_start_);
    ASSERT_TRUE(model_->Fit(train).ok());

    config_.theta = series_.Mean() / 4.0;  // ~4 nodes on average
    config_.min_nodes = 1;

    realized_.assign(
        series_.values.begin() + static_cast<long>(eval_start_),
        series_.values.end());
  }

  core::ProvisioningReport Evaluate(const std::vector<int>& alloc) const {
    return core::EvaluateAllocation(realized_, alloc, config_);
  }

  ts::TimeSeries series_;
  std::unique_ptr<forecast::TftForecaster> model_;
  size_t eval_start_ = 0;
  core::ScalingConfig config_;
  std::vector<double> realized_;
};

TEST_F(PipelineFixture, RobustReducesUnderProvisioningVsPoint) {
  core::RobustQuantileAllocator robust(0.9);
  core::PointForecastAllocator point;
  auto robust_alloc = core::RunPredictiveStrategy(
      *model_, robust, series_, eval_start_, kEvalSteps, config_);
  auto point_alloc = core::RunPredictiveStrategy(
      *model_, point, series_, eval_start_, kEvalSteps, config_);
  ASSERT_TRUE(robust_alloc.ok());
  ASSERT_TRUE(point_alloc.ok());
  const auto robust_report = Evaluate(*robust_alloc);
  const auto point_report = Evaluate(*point_alloc);
  EXPECT_LT(robust_report.under_provision_rate,
            point_report.under_provision_rate);
}

TEST_F(PipelineFixture, HigherQuantileMonotoneTradeoff) {
  double prev_under = 1.1;
  double prev_over = -0.1;
  for (double tau : {0.5, 0.8, 0.95}) {
    core::RobustQuantileAllocator allocator(tau);
    auto alloc = core::RunPredictiveStrategy(
        *model_, allocator, series_, eval_start_, kEvalSteps, config_);
    ASSERT_TRUE(alloc.ok());
    const auto report = Evaluate(*alloc);
    EXPECT_LE(report.under_provision_rate, prev_under + 1e-9)
        << "tau=" << tau;
    EXPECT_GE(report.over_provision_rate, prev_over - 1e-9)
        << "tau=" << tau;
    prev_under = report.under_provision_rate;
    prev_over = report.over_provision_rate;
  }
}

TEST_F(PipelineFixture, AdaptiveBoundedByItsTwoFixedLevels) {
  core::RobustQuantileAllocator lo(0.8);
  core::RobustQuantileAllocator hi(0.95);
  core::AdaptiveQuantileAllocator adaptive(0.8, 0.95, /*rho=*/0.0);
  auto alloc_lo = core::RunPredictiveStrategy(*model_, lo, series_,
                                              eval_start_, kEvalSteps,
                                              config_);
  auto alloc_hi = core::RunPredictiveStrategy(*model_, hi, series_,
                                              eval_start_, kEvalSteps,
                                              config_);
  auto alloc_ad = core::RunPredictiveStrategy(*model_, adaptive, series_,
                                              eval_start_, kEvalSteps,
                                              config_);
  ASSERT_TRUE(alloc_lo.ok() && alloc_hi.ok() && alloc_ad.ok());
  const auto r_lo = Evaluate(*alloc_lo);
  const auto r_hi = Evaluate(*alloc_hi);
  const auto r_ad = Evaluate(*alloc_ad);
  // The adaptive plan sits between the two fixed plans on both axes.
  EXPECT_LE(r_ad.under_provision_rate, r_lo.under_provision_rate + 1e-9);
  EXPECT_GE(r_ad.under_provision_rate, r_hi.under_provision_rate - 1e-9);
  EXPECT_LE(r_ad.over_provision_rate, r_hi.over_provision_rate + 1e-9);
  EXPECT_GE(r_ad.over_provision_rate, r_lo.over_provision_rate - 1e-9);
}

TEST_F(PipelineFixture, ReactiveWorseThanRobustOnUnderProvisioning) {
  core::ReactiveAvgStrategy reactive(6, 6.0);
  auto reactive_alloc = core::RunReactiveStrategy(
      reactive, series_, eval_start_, kEvalSteps, config_);
  core::RobustQuantileAllocator robust(0.9);
  auto robust_alloc = core::RunPredictiveStrategy(
      *model_, robust, series_, eval_start_, kEvalSteps, config_);
  ASSERT_TRUE(reactive_alloc.ok() && robust_alloc.ok());
  EXPECT_GT(Evaluate(*reactive_alloc).under_provision_rate,
            Evaluate(*robust_alloc).under_provision_rate);
}

TEST_F(PipelineFixture, SimulatorReplayAgreesWithAnalyticRates) {
  core::RobustQuantileAllocator robust(0.9);
  auto alloc = core::RunPredictiveStrategy(*model_, robust, series_,
                                           eval_start_, kEvalSteps, config_);
  ASSERT_TRUE(alloc.ok());

  ts::TimeSeries eval_series;
  eval_series.values = realized_;
  eval_series.step_minutes = series_.step_minutes;

  simdb::Cluster::Options cluster_options;
  cluster_options.node_capacity = config_.theta;
  // The simulator's under-provision criterion is Eq. 3's, up to the
  // warm-up capacity loss on scale-out steps.
  auto replay =
      simdb::ReplayAllocation(eval_series, *alloc, cluster_options);
  ASSERT_TRUE(replay.ok());
  const auto analytic = Evaluate(*alloc);
  EXPECT_NEAR(replay->under_provision_rate, analytic.under_provision_rate,
              0.05);
}

TEST_F(PipelineFixture, ManagerEndToEndPlansAndSimulates) {
  core::RobustAutoScalingManager manager(
      model_.get(), std::make_unique<core::RobustQuantileAllocator>(0.9),
      config_);
  manager.SetSmoother({.max_step_delta = 4, .scale_in_cooldown = 2});
  auto plan = manager.PlanNext(series_.Slice(0, eval_start_));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->nodes.size(), kHorizon);

  ts::TimeSeries window = series_.Slice(eval_start_, eval_start_ + kHorizon);
  simdb::Cluster::Options cluster_options;
  cluster_options.node_capacity = config_.theta;
  cluster_options.initial_nodes = plan->nodes[0];
  auto replay = simdb::ReplayAllocation(window, plan->nodes,
                                        cluster_options);
  ASSERT_TRUE(replay.ok());
  // A 0.9-quantile plan on this easy trace should mostly avoid saturation.
  EXPECT_LT(replay->under_provision_rate, 0.5);
}

}  // namespace
}  // namespace rpas
