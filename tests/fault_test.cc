// Fault-injection harness and graceful degradation of the online scaling
// loop: per-fault-type coverage (actuation delay, partial scale-out,
// transient crash, workload spike, forecaster timeout / NaN / stale) with
// seed-deterministic assertions, plus the degradation-policy guarantees —
// bounded retry, reactive/last-known-good fallback, never aborting, and an
// inert all-zero plan.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "core/manager.h"
#include "core/online_loop.h"
#include "core/strategies.h"
#include "forecast/seasonal_naive.h"
#include "simdb/cluster.h"
#include "simdb/faults.h"

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

// -------------------------------------------------------- FaultInjector ---

TEST(FaultInjectorTest, ZeroPlanIsInert) {
  simdb::FaultPlan plan;
  EXPECT_FALSE(plan.Any());
  simdb::FaultInjector injector(plan);
  for (size_t step = 0; step < 200; ++step) {
    EXPECT_FALSE(injector.FaultsForStep(step).Any()) << "step " << step;
  }
}

TEST(FaultInjectorTest, ScheduleIsPurePerStep) {
  simdb::FaultPlan plan = simdb::FaultPlan::Uniform(0.3, 77);
  simdb::FaultInjector a(plan);
  simdb::FaultInjector b(plan);
  // Query b in reverse order; per-step faults must match a's exactly.
  std::vector<simdb::StepFaults> forward;
  for (size_t step = 0; step < 100; ++step) {
    forward.push_back(a.FaultsForStep(step));
  }
  for (size_t step = 100; step-- > 0;) {
    const simdb::StepFaults f = b.FaultsForStep(step);
    EXPECT_EQ(f.actuation_delayed, forward[step].actuation_delayed);
    EXPECT_EQ(f.partial_fraction, forward[step].partial_fraction);
    EXPECT_EQ(f.crash_nodes, forward[step].crash_nodes);
    EXPECT_EQ(f.workload_multiplier, forward[step].workload_multiplier);
    EXPECT_EQ(f.forecaster_timeout_attempts,
              forward[step].forecaster_timeout_attempts);
    EXPECT_EQ(f.forecaster_nan, forward[step].forecaster_nan);
    EXPECT_EQ(f.stale_forecast, forward[step].stale_forecast);
  }
}

TEST(FaultInjectorTest, SeedsProduceDifferentSchedules) {
  simdb::FaultInjector a(simdb::FaultPlan::Uniform(0.2, 1));
  simdb::FaultInjector b(simdb::FaultPlan::Uniform(0.2, 2));
  size_t differing = 0;
  for (size_t step = 0; step < 200; ++step) {
    if (a.FaultsForStep(step).Any() != b.FaultsForStep(step).Any()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultInjectorTest, DelayFaultCoversConsecutiveSteps) {
  simdb::FaultPlan plan;
  plan.actuation_delay_rate = 0.1;
  plan.actuation_delay_steps = 3;
  plan.seed = 5;
  simdb::FaultInjector injector(plan);
  // Every firing must extend over the next actuation_delay_steps steps.
  simdb::FaultPlan single = plan;
  single.actuation_delay_steps = 1;
  simdb::FaultInjector origin(single);
  for (size_t step = 0; step < 300; ++step) {
    if (origin.FaultsForStep(step).actuation_delayed) {
      for (size_t k = 0; k < 3; ++k) {
        EXPECT_TRUE(injector.FaultsForStep(step + k).actuation_delayed)
            << "fault at " << step << " must still hold at +" << k;
      }
    }
  }
}

TEST(FaultInjectorTest, RatesScaleFaultFrequency) {
  size_t low = 0;
  size_t high = 0;
  simdb::FaultInjector sparse(simdb::FaultPlan::Uniform(0.02, 9));
  simdb::FaultInjector dense(simdb::FaultPlan::Uniform(0.5, 9));
  for (size_t step = 0; step < 500; ++step) {
    low += sparse.FaultsForStep(step).Any() ? 1 : 0;
    high += dense.FaultsForStep(step).Any() ? 1 : 0;
  }
  EXPECT_LT(low, high);
  EXPECT_GT(low, 0u);
}

// ------------------------------------------------------- Cluster faults ---

simdb::Cluster::Options ClusterOptions() {
  simdb::Cluster::Options options;
  options.step_seconds = 600.0;
  options.node_capacity = 1.0;
  options.checkpoint_gb = 4.0;
  options.initial_nodes = 1;
  return options;
}

TEST(ClusterFaultTest, ActuationDelayDefersScaleOut) {
  simdb::Cluster cluster(ClusterOptions());
  simdb::StepFaults delayed;
  delayed.actuation_delayed = true;
  simdb::StepStats stats = cluster.Step(4, 1.0, delayed);
  EXPECT_EQ(stats.nodes_added, 0);
  EXPECT_EQ(stats.nodes_delayed, 3);
  EXPECT_EQ(cluster.NumNodes(), 1);
  // Outage clears; the re-request lands.
  stats = cluster.Step(4, 1.0);
  EXPECT_EQ(stats.nodes_added, 3);
  EXPECT_EQ(stats.nodes_delayed, 0);
  EXPECT_EQ(cluster.NumNodes(), 4);
}

TEST(ClusterFaultTest, DelayDoesNotBlockScaleIn) {
  simdb::Cluster cluster(ClusterOptions());
  cluster.Step(5, 1.0);
  simdb::StepFaults delayed;
  delayed.actuation_delayed = true;
  simdb::StepStats stats = cluster.Step(2, 1.0, delayed);
  EXPECT_EQ(stats.nodes_removed, 3);
  EXPECT_EQ(cluster.NumNodes(), 2);
}

TEST(ClusterFaultTest, PartialScaleOutGrantsFraction) {
  simdb::Cluster cluster(ClusterOptions());
  simdb::StepFaults partial;
  partial.partial_fraction = 0.5;
  // Requested 4 new nodes, got floor(4 * 0.5) = 2.
  simdb::StepStats stats = cluster.Step(5, 1.0, partial);
  EXPECT_EQ(stats.nodes_added, 2);
  EXPECT_EQ(stats.nodes_denied, 2);
  EXPECT_EQ(cluster.NumNodes(), 3);
}

TEST(ClusterFaultTest, CrashDropsNodesButNeverBelowOne) {
  simdb::Cluster cluster(ClusterOptions());
  cluster.Step(4, 1.0);
  simdb::StepFaults crash;
  crash.crash_nodes = 2;
  simdb::StepStats stats = cluster.Step(4, 1.0, crash);
  EXPECT_EQ(stats.nodes_failed, 2);
  EXPECT_EQ(cluster.NumNodes(), 2);
  EXPECT_EQ(cluster.total_failures(), 2);

  crash.crash_nodes = 100;
  stats = cluster.Step(2, 1.0, crash);
  EXPECT_GE(cluster.NumNodes(), 1);
}

TEST(ClusterFaultTest, SpikeMultipliesRealizedWorkload) {
  simdb::Cluster cluster(ClusterOptions());
  cluster.Step(2, 0.8);
  simdb::StepFaults spike;
  spike.workload_multiplier = 3.0;
  // 2.4 on two nodes of theta 1: over Eq. 3's plan, utilization 0.84.
  simdb::StepStats stats = cluster.Step(2, 0.8, spike);
  EXPECT_DOUBLE_EQ(stats.workload, 2.4);
  EXPECT_DOUBLE_EQ(stats.spike_multiplier, 3.0);
  EXPECT_NEAR(stats.avg_utilization, 0.84, 1e-9);
  EXPECT_TRUE(stats.under_provisioned);
}

TEST(ClusterFaultTest, DefaultFaultsMatchPlainStepBitwise) {
  simdb::Cluster plain(ClusterOptions());
  simdb::Cluster faulted(ClusterOptions());
  for (int i = 0; i < 30; ++i) {
    const int target = 1 + (i * 7) % 5;
    const double w = 0.3 * static_cast<double>(1 + i % 4);
    const simdb::StepStats a = plain.Step(target, w);
    const simdb::StepStats b = faulted.Step(target, w, simdb::StepFaults{});
    EXPECT_EQ(a.effective_nodes, b.effective_nodes);
    EXPECT_EQ(a.avg_utilization, b.avg_utilization);
    EXPECT_EQ(a.nodes_added, b.nodes_added);
    EXPECT_EQ(a.nodes_removed, b.nodes_removed);
    EXPECT_EQ(a.p_latency_ms, b.p_latency_ms);
  }
}

// --------------------------------------------------- Online loop faults ---

class FaultLoopFixture : public ::testing::Test {
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

TEST_F(FaultLoopFixture, ZeroFaultPlanLeavesOutputUntouched) {
  core::OnlineLoopOptions clean = LoopOptions();
  core::OnlineLoopOptions zeroed = LoopOptions();
  zeroed.faults = simdb::FaultPlan{};  // explicit all-zero plan
  zeroed.faults.seed = 999;            // seed alone must not matter
  auto a = core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay, clean);
  auto b = core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay, zeroed);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->allocation, b->allocation);
  ASSERT_EQ(a->steps.size(), b->steps.size());
  for (size_t i = 0; i < a->steps.size(); ++i) {
    EXPECT_EQ(a->steps[i].effective_nodes, b->steps[i].effective_nodes);
    EXPECT_EQ(a->steps[i].avg_utilization, b->steps[i].avg_utilization);
  }
  EXPECT_EQ(a->slo_violation_rate, b->slo_violation_rate);
  EXPECT_TRUE(b->fault_events.empty());
  EXPECT_EQ(b->forecaster_faults, 0u);
  EXPECT_EQ(b->fallback_plans, 0u);
  EXPECT_EQ(b->faulted_steps, 0u);
  EXPECT_EQ(b->degraded_steps, 0u);
}

TEST_F(FaultLoopFixture, TimeoutWithinRetryBudgetRecoversExactPlan) {
  // Every planning round times out once; one retry (budget 2) recovers the
  // same forecast, so the applied allocation is bit-identical to the clean
  // run while the event log records the recoveries.
  core::OnlineLoopOptions faulty = LoopOptions();
  faulty.faults.forecaster_timeout_rate = 1.0;
  faulty.faults.forecaster_timeout_attempts = 1;
  faulty.degradation.max_retries = 2;
  auto clean =
      core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay, LoopOptions());
  auto faulted =
      core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay, faulty);
  ASSERT_TRUE(clean.ok() && faulted.ok());
  EXPECT_EQ(clean->allocation, faulted->allocation);
  EXPECT_EQ(faulted->retried_plans, faulted->plans_made);
  EXPECT_EQ(faulted->forecaster_faults, faulted->plans_made);
  EXPECT_EQ(faulted->fallback_plans, 0u);
  ASSERT_FALSE(faulted->fault_events.empty());
  for (const simdb::FaultEvent& e : faulted->fault_events) {
    EXPECT_EQ(e.type, simdb::FaultType::kForecasterTimeout);
    EXPECT_EQ(e.action, simdb::FaultAction::kRetrySucceeded);
    EXPECT_EQ(e.retries, 1);
  }
}

TEST_F(FaultLoopFixture, TimeoutBeyondRetryBudgetFallsBack) {
  core::OnlineLoopOptions faulty = LoopOptions();
  faulty.faults.forecaster_timeout_rate = 1.0;
  faulty.faults.forecaster_timeout_attempts = 5;
  faulty.degradation.max_retries = 2;
  auto result =
      core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay, faulty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->allocation.size(), kDay);
  EXPECT_GT(result->fallback_plans, 0u);
  EXPECT_EQ(result->retried_plans, 0u);
  EXPECT_GT(result->degraded_steps, 0u);
  // No plan ever succeeded, so the very first fallback (and every later
  // one) is reactive.
  bool saw_reactive = false;
  for (const simdb::FaultEvent& e : result->fault_events) {
    EXPECT_EQ(e.type, simdb::FaultType::kForecasterTimeout);
    if (e.action == simdb::FaultAction::kFallbackReactive) {
      saw_reactive = true;
    }
  }
  EXPECT_TRUE(saw_reactive);
  // Degraded operation stays conservative: never below the initial count.
  for (int nodes : result->allocation) {
    EXPECT_GE(nodes, 5);
  }
}

TEST_F(FaultLoopFixture, NanFaultCountsOneAttemptAndRecovers) {
  core::OnlineLoopOptions faulty = LoopOptions();
  faulty.faults.forecaster_nan_rate = 1.0;
  faulty.degradation.max_retries = 1;
  auto clean =
      core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay, LoopOptions());
  auto result =
      core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay, faulty);
  ASSERT_TRUE(clean.ok() && result.ok());
  // NaN output is detected, retried once, and the retry recovers the
  // clean forecast.
  EXPECT_EQ(clean->allocation, result->allocation);
  EXPECT_EQ(result->retried_plans, result->plans_made);
  for (const simdb::FaultEvent& e : result->fault_events) {
    EXPECT_EQ(e.type, simdb::FaultType::kForecasterNan);
    EXPECT_EQ(e.action, simdb::FaultAction::kRetrySucceeded);
  }
}

TEST_F(FaultLoopFixture, NanFallbackIsReactiveWhenNoPlanEverSucceeded) {
  core::OnlineLoopOptions faulty = LoopOptions();
  faulty.faults.forecaster_nan_rate = 1.0;
  faulty.degradation.max_retries = 0;  // no retries: every round degrades
  faulty.replan_every = 12;
  auto result =
      core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay, faulty);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->fallback_plans, result->plans_made);
  for (const simdb::FaultEvent& e : result->fault_events) {
    EXPECT_EQ(e.type, simdb::FaultType::kForecasterNan);
    // No plan ever succeeds, so every fallback is reactive.
    EXPECT_EQ(e.action, simdb::FaultAction::kFallbackReactive);
  }
}

TEST_F(FaultLoopFixture, FallbackUsesLastGoodPlanAfterOneSuccess) {
  // Intermittent timeouts that outlast the retry budget: rounds that fall
  // after a successful round must fall back to the last known-good level,
  // not the purely reactive plan.
  core::OnlineLoopOptions faulty = LoopOptions();
  faulty.faults.forecaster_timeout_rate = 0.6;
  faulty.faults.forecaster_timeout_attempts = 5;
  faulty.faults.seed = 7;
  faulty.degradation.max_retries = 1;
  faulty.replan_every = 6;
  auto result =
      core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay, faulty);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->fallback_plans, 0u);
  EXPECT_LT(result->fallback_plans, result->plans_made);  // some succeeded
  bool saw_last_good = false;
  for (const simdb::FaultEvent& e : result->fault_events) {
    if (e.action == simdb::FaultAction::kFallbackLastGood) {
      saw_last_good = true;
    }
  }
  EXPECT_TRUE(saw_last_good);
}

TEST_F(FaultLoopFixture, StaleForecastReplaysLastGoodPlan) {
  core::OnlineLoopOptions faulty = LoopOptions();
  faulty.faults.stale_forecast_rate = 1.0;
  faulty.replan_every = 12;
  auto result =
      core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay, faulty);
  ASSERT_TRUE(result.ok());
  // First round has no cache and plans normally; every later round is
  // stale.
  EXPECT_EQ(result->stale_plans, result->plans_made - 1);
  size_t stale_events = 0;
  for (const simdb::FaultEvent& e : result->fault_events) {
    if (e.type == simdb::FaultType::kStaleForecast) {
      ++stale_events;
    }
  }
  EXPECT_EQ(stale_events, result->stale_plans);
  // The replayed plan is the first 12 steps of the last good plan, so the
  // allocation repeats the first round's prefix.
  for (size_t i = 12; i < 2 * 12; ++i) {
    EXPECT_EQ(result->allocation[i], result->allocation[i - 12]);
  }
}

TEST_F(FaultLoopFixture, CompositeFaultsDegradeGracefully) {
  core::OnlineLoopOptions faulty = LoopOptions();
  faulty.faults = simdb::FaultPlan::Uniform(0.15, 2024);
  faulty.faults.forecaster_timeout_attempts = 4;
  faulty.degradation.max_retries = 1;
  auto clean = core::RunOnlineLoop(*manager_, series_, 6 * kDay, 2 * kDay,
                                   LoopOptions());
  auto result = core::RunOnlineLoop(*manager_, series_, 6 * kDay, 2 * kDay,
                                    faulty);
  ASSERT_TRUE(clean.ok() && result.ok());
  EXPECT_EQ(result->allocation.size(), 2 * kDay);
  EXPECT_EQ(result->steps.size(), 2 * kDay);
  EXPECT_GT(result->faulted_steps, 0u);
  EXPECT_FALSE(result->fault_events.empty());
  // Faults hurt but do not break: SLO violations stay a minority of steps.
  EXPECT_GE(result->slo_violation_rate, clean->slo_violation_rate);
  EXPECT_LT(result->slo_violation_rate, 0.5);
  // Deterministic: the same options reproduce the run bit-for-bit.
  auto replay = core::RunOnlineLoop(*manager_, series_, 6 * kDay, 2 * kDay,
                                    faulty);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(result->allocation, replay->allocation);
  ASSERT_EQ(result->fault_events.size(), replay->fault_events.size());
  for (size_t i = 0; i < result->fault_events.size(); ++i) {
    EXPECT_EQ(result->fault_events[i].step, replay->fault_events[i].step);
    EXPECT_EQ(result->fault_events[i].type, replay->fault_events[i].type);
    EXPECT_EQ(result->fault_events[i].action,
              replay->fault_events[i].action);
  }
}

TEST_F(FaultLoopFixture, CrashAndSpikeEventsCarryMagnitudes) {
  core::OnlineLoopOptions faulty = LoopOptions();
  faulty.faults.crash_rate = 0.3;
  faulty.faults.crash_nodes = 2;
  faulty.faults.spike_rate = 0.3;
  faulty.faults.spike_multiplier = 2.5;
  faulty.faults.seed = 31;
  auto result =
      core::RunOnlineLoop(*manager_, series_, 6 * kDay, kDay, faulty);
  ASSERT_TRUE(result.ok());
  bool saw_crash = false;
  bool saw_spike = false;
  for (const simdb::FaultEvent& e : result->fault_events) {
    if (e.type == simdb::FaultType::kNodeCrash) {
      saw_crash = true;
      EXPECT_GE(e.magnitude, 1.0);
      EXPECT_LE(e.magnitude, 2.0);
    }
    if (e.type == simdb::FaultType::kWorkloadSpike) {
      saw_spike = true;
      EXPECT_DOUBLE_EQ(e.magnitude, 2.5);
    }
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_spike);
}

// ------------------------------------------- Manager fault validation ---

// Forecaster stub whose quantile output is poisoned with NaN.
class NanForecaster final : public forecast::Forecaster {
 public:
  Status Fit(const ts::TimeSeries&) override { return Status::OK(); }
  Result<ts::QuantileForecast> Predict(
      const forecast::ForecastInput&) const override {
    const std::vector<double> levels = {0.5, 0.9};
    std::vector<std::vector<double>> values(
        4, {1.0, std::numeric_limits<double>::quiet_NaN()});
    return ts::QuantileForecast(levels, std::move(values));
  }
  size_t Horizon() const override { return 4; }
  size_t ContextLength() const override { return 4; }
  const std::vector<double>& Levels() const override { return levels_; }
  std::string Name() const override { return "NanStub"; }

 private:
  std::vector<double> levels_ = {0.5, 0.9};
};

TEST(ManagerValidationTest, NanForecastRejectedAsInternal) {
  NanForecaster model;
  core::ScalingConfig config;
  core::RobustAutoScalingManager manager(
      &model, std::make_unique<core::RobustQuantileAllocator>(0.9), config);
  ts::TimeSeries history;
  history.values = {1.0, 2.0, 3.0, 4.0, 5.0};
  auto plan = manager.PlanNext(history, 1);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInternal);
}

TEST(ManagerValidationTest, GenuinePlannerErrorDegradesUnderFaultPlan) {
  // A forecaster that always errors: without a fault plan the loop
  // propagates the error; with one it degrades reactively and completes.
  class FailingForecaster final : public forecast::Forecaster {
   public:
    Status Fit(const ts::TimeSeries&) override { return Status::OK(); }
    Result<ts::QuantileForecast> Predict(
        const forecast::ForecastInput&) const override {
      return Status::Internal("model unavailable");
    }
    size_t Horizon() const override { return 4; }
    size_t ContextLength() const override { return 4; }
    const std::vector<double>& Levels() const override { return levels_; }
    std::string Name() const override { return "FailStub"; }

   private:
    std::vector<double> levels_ = {0.5, 0.9};
  } model;

  core::ScalingConfig config;
  config.theta = 2.0;
  core::RobustAutoScalingManager manager(
      &model, std::make_unique<core::RobustQuantileAllocator>(0.9), config);
  ts::TimeSeries series = SineSeries(64, 0.1, 3);

  core::OnlineLoopOptions clean;
  clean.cluster.node_capacity = config.theta;
  auto failing = core::RunOnlineLoop(manager, series, 8, 16, clean);
  ASSERT_FALSE(failing.ok());
  EXPECT_EQ(failing.status().code(), StatusCode::kInternal);

  core::OnlineLoopOptions faulted = clean;
  faulted.faults.spike_rate = 1e-9;  // non-zero plan arms degradation
  auto degraded = core::RunOnlineLoop(manager, series, 8, 16, faulted);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->allocation.size(), 16u);
  EXPECT_GT(degraded->fallback_plans, 0u);
  bool saw_planner_error = false;
  for (const simdb::FaultEvent& e : degraded->fault_events) {
    if (e.type == simdb::FaultType::kPlannerError) {
      saw_planner_error = true;
      EXPECT_EQ(e.action, simdb::FaultAction::kFallbackReactive);
    }
  }
  EXPECT_TRUE(saw_planner_error);
}

// ------------------------------------------------ Up-front validation ---

TEST_F(FaultLoopFixture, RejectsRangePastSeriesUpFront) {
  auto result = core::RunOnlineLoop(*manager_, series_, series_.size() - 10,
                                    20, LoopOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FaultLoopFixture, RejectsInsufficientContextUpFront) {
  // Context length is one day; starting earlier must fail before any
  // simulation work, as InvalidArgument.
  auto result =
      core::RunOnlineLoop(*manager_, series_, kDay / 2, 10, LoopOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rpas
