#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "simdb/cluster.h"
#include "simdb/replay.h"
#include "simdb/warmup.h"

namespace rpas::simdb {
namespace {

Cluster::Options FastOptions() {
  Cluster::Options options;
  options.step_seconds = 600.0;
  options.node_capacity = 1.0;
  options.utilization_threshold = 0.7;
  options.checkpoint_gb = 4.0;
  options.initial_nodes = 1;
  return options;
}

// ------------------------------------------------------------------ Warmup ---

TEST(WarmupTest, DeterministicWithoutRng) {
  WarmupModel model;
  model.base_latency_seconds = 1.0;
  model.replay_gbps = 2.0;
  model.jitter_fraction = 0.1;
  EXPECT_DOUBLE_EQ(model.WarmupSeconds(4.0, nullptr), 3.0);
}

TEST(WarmupTest, ScalesWithCheckpointSize) {
  WarmupModel model;
  model.base_latency_seconds = 1.0;
  model.replay_gbps = 2.0;
  EXPECT_LT(model.WarmupSeconds(1.0, nullptr),
            model.WarmupSeconds(16.0, nullptr));
}

TEST(WarmupTest, JitterBounded) {
  WarmupModel model;
  model.base_latency_seconds = 2.0;
  model.replay_gbps = 1.0;
  model.jitter_fraction = 0.1;
  Rng rng(1);
  const double nominal = 2.0 + 8.0;
  for (int i = 0; i < 1000; ++i) {
    const double w = model.WarmupSeconds(8.0, &rng);
    EXPECT_GE(w, nominal * 0.9 - 1e-9);
    EXPECT_LE(w, nominal * 1.1 + 1e-9);
  }
}

TEST(WarmupTest, ZeroLengthWarmupIsLegalAndInstant) {
  WarmupModel model;
  model.base_latency_seconds = 0.0;
  model.replay_gbps = 2.0;
  model.jitter_fraction = 0.0;
  EXPECT_DOUBLE_EQ(model.WarmupSeconds(0.0, nullptr), 0.0);
  // Jitter on a zero nominal stays zero (multiplicative).
  model.jitter_fraction = 0.5;
  Rng rng(3);
  EXPECT_DOUBLE_EQ(model.WarmupSeconds(0.0, &rng), 0.0);
}

TEST(WarmupTest, ZeroWarmupNodesContributeFullCapacityImmediately) {
  Cluster::Options options;
  options.step_seconds = 600.0;
  options.node_capacity = 1.0;
  options.checkpoint_gb = 0.0;
  options.warmup.base_latency_seconds = 0.0;
  options.warmup.jitter_fraction = 0.0;
  Cluster cluster(options);
  StepStats stats = cluster.Step(4, 2.0);
  EXPECT_EQ(stats.nodes_added, 3);
  EXPECT_EQ(stats.active_nodes, 4);
  EXPECT_DOUBLE_EQ(stats.effective_nodes, 4.0);
}

TEST(WarmupTest, WarmupLongerThanStepSpansMultipleSteps) {
  // Warm-up of 1500 s against 600 s steps: a joining node contributes
  // nothing for two full steps, half a node on the third, full capacity on
  // the fourth.
  Cluster::Options options;
  options.step_seconds = 600.0;
  options.node_capacity = 1.0;
  options.checkpoint_gb = 0.0;
  options.warmup.base_latency_seconds = 1500.0;
  options.warmup.jitter_fraction = 0.0;
  Cluster cluster(options);
  StepStats s1 = cluster.Step(2, 0.5);  // one old + one warming node
  EXPECT_DOUBLE_EQ(s1.effective_nodes, 1.0);
  EXPECT_EQ(s1.active_nodes, 1);
  StepStats s2 = cluster.Step(2, 0.5);
  EXPECT_DOUBLE_EQ(s2.effective_nodes, 1.0);
  StepStats s3 = cluster.Step(2, 0.5);  // 300 s of warm-up remain
  EXPECT_DOUBLE_EQ(s3.effective_nodes, 1.5);
  EXPECT_EQ(s3.active_nodes, 1);
  StepStats s4 = cluster.Step(2, 0.5);
  EXPECT_DOUBLE_EQ(s4.effective_nodes, 2.0);
  EXPECT_EQ(s4.active_nodes, 2);
}

TEST(WarmupTest, WarmupLongerThanRunNeverActivates) {
  Cluster::Options options;
  options.step_seconds = 600.0;
  options.checkpoint_gb = 0.0;
  options.warmup.base_latency_seconds = 1e6;  // outlasts any short run
  options.warmup.jitter_fraction = 0.0;
  Cluster cluster(options);
  for (int i = 0; i < 5; ++i) {
    StepStats stats = cluster.Step(3, 0.5);
    EXPECT_EQ(stats.active_nodes, 1) << "step " << i;
    EXPECT_DOUBLE_EQ(stats.effective_nodes, 1.0) << "step " << i;
  }
}

TEST(WarmupTest, ScaleInDuringWarmupRemovesWarmingNodesFirst) {
  // Scale out to 3 with a multi-step warm-up, then scale in to 2 while the
  // two new nodes are still warming: the youngest (warming) node goes
  // first, and the survivor's fractional capacity accounting continues
  // where it left off.
  Cluster::Options options;
  options.step_seconds = 600.0;
  options.checkpoint_gb = 0.0;
  options.warmup.base_latency_seconds = 900.0;  // 1.5 steps
  options.warmup.jitter_fraction = 0.0;
  Cluster cluster(options);
  StepStats s1 = cluster.Step(3, 0.5);
  EXPECT_EQ(s1.nodes_added, 2);
  // Both new nodes contribute 0 this step (900 > 600).
  EXPECT_DOUBLE_EQ(s1.effective_nodes, 1.0);
  StepStats s2 = cluster.Step(2, 0.5);
  EXPECT_EQ(s2.nodes_removed, 1);
  EXPECT_EQ(cluster.NumNodes(), 2);
  // Survivor has 300 s of warm-up left: contributes 1 - 300/600 = 0.5.
  EXPECT_DOUBLE_EQ(s2.effective_nodes, 1.5);
  EXPECT_EQ(s2.active_nodes, 1);
  StepStats s3 = cluster.Step(2, 0.5);
  EXPECT_DOUBLE_EQ(s3.effective_nodes, 2.0);
  EXPECT_EQ(s3.active_nodes, 2);
}

TEST(WarmupTest, ScaleInToOneDuringWarmupKeepsOldestNode) {
  Cluster::Options options;
  options.step_seconds = 600.0;
  options.checkpoint_gb = 0.0;
  options.warmup.base_latency_seconds = 1200.0;
  options.warmup.jitter_fraction = 0.0;
  Cluster cluster(options);
  cluster.Step(4, 0.5);
  StepStats stats = cluster.Step(1, 0.5);
  EXPECT_EQ(stats.nodes_removed, 3);
  EXPECT_EQ(cluster.NumNodes(), 1);
  // The surviving node is the original, fully-warm one.
  EXPECT_EQ(stats.active_nodes, 1);
  EXPECT_DOUBLE_EQ(stats.effective_nodes, 1.0);
}

TEST(WarmupTest, ScaleOutIsSecondsNotMinutes) {
  // The paper's Fig. 5 claim: rebuilding in-memory components takes a few
  // seconds, negligible vs a 10-minute decision interval.
  WarmupModel model;  // defaults
  EXPECT_LT(model.WarmupSeconds(8.0, nullptr), 60.0);
}

// ----------------------------------------------------------------- Cluster ---

TEST(ClusterTest, StartsWithInitialNodes) {
  Cluster cluster(FastOptions());
  EXPECT_EQ(cluster.NumNodes(), 1);
}

TEST(ClusterTest, ScaleOutAddsWarmingNodes) {
  Cluster cluster(FastOptions());
  StepStats stats = cluster.Step(4, 1.0);
  EXPECT_EQ(stats.nodes_added, 3);
  EXPECT_EQ(cluster.NumNodes(), 4);
  // New nodes contribute most of their capacity (warm-up is seconds out of
  // a 600-second step).
  EXPECT_GT(stats.effective_nodes, 3.9);
  EXPECT_LT(stats.effective_nodes, 4.0);
}

TEST(ClusterTest, SecondStepNodesFullyWarm) {
  Cluster cluster(FastOptions());
  cluster.Step(4, 1.0);
  StepStats stats = cluster.Step(4, 1.0);
  EXPECT_EQ(stats.active_nodes, 4);
  EXPECT_DOUBLE_EQ(stats.effective_nodes, 4.0);
}

TEST(ClusterTest, ScaleInImmediate) {
  Cluster cluster(FastOptions());
  cluster.Step(5, 1.0);
  StepStats stats = cluster.Step(2, 1.0);
  EXPECT_EQ(stats.nodes_removed, 3);
  EXPECT_EQ(cluster.NumNodes(), 2);
}

TEST(ClusterTest, UnderProvisionWhenOverloaded) {
  Cluster cluster(FastOptions());
  // 1 node, threshold 0.7, workload 0.9 => utilization 0.9 > 0.7.
  StepStats stats = cluster.Step(1, 0.9);
  EXPECT_TRUE(stats.under_provisioned);
  EXPECT_NEAR(stats.avg_utilization, 0.9, 1e-9);
}

TEST(ClusterTest, NotUnderProvisionedAtThreshold) {
  Cluster cluster(FastOptions());
  cluster.Step(2, 0.0);
  StepStats stats = cluster.Step(2, 1.4);  // 0.7 exactly
  EXPECT_FALSE(stats.under_provisioned);
}

TEST(ClusterTest, LatencyBlowsUpNearSaturation) {
  Cluster cluster(FastOptions());
  cluster.Step(1, 0.0);
  StepStats low = cluster.Step(1, 0.3);
  StepStats high = cluster.Step(1, 0.97);
  EXPECT_GT(high.p_latency_ms, 5.0 * low.p_latency_ms);
  EXPECT_TRUE(high.slo_violated);
}

TEST(ClusterTest, MinNodesRespected) {
  Cluster::Options options = FastOptions();
  options.min_nodes = 2;
  options.initial_nodes = 3;
  Cluster cluster(options);
  cluster.Step(1, 0.1);  // request below floor
  EXPECT_EQ(cluster.NumNodes(), 2);
}

TEST(ClusterTest, CountsScaleEventsAndDirectionChanges) {
  Cluster cluster(FastOptions());
  cluster.Step(3, 1.0);  // up
  cluster.Step(1, 1.0);  // down (change)
  cluster.Step(4, 1.0);  // up (change)
  cluster.Step(4, 1.0);  // no change
  EXPECT_EQ(cluster.total_scale_events(), 3);
  EXPECT_EQ(cluster.total_direction_changes(), 2);
}

TEST(ClusterTest, NodeStepsAccumulate) {
  Cluster cluster(FastOptions());
  cluster.Step(2, 0.5);
  cluster.Step(2, 0.5);
  EXPECT_EQ(cluster.total_node_steps(), 4);
}

// --------------------------------------------------------- Failure inject ---

/// A step's faults with only `count` crashed nodes.
StepFaults Crash(int count) {
  StepFaults faults;
  faults.crash_nodes = count;
  return faults;
}

TEST(FailureTest, ManualInjectionRemovesNodes) {
  Cluster cluster(FastOptions());
  cluster.Step(5, 1.0);
  const StepStats stats = cluster.Step(5, 1.0, Crash(2));
  EXPECT_EQ(stats.nodes_failed, 2);
  EXPECT_EQ(cluster.NumNodes(), 3);
  EXPECT_EQ(cluster.total_failures(), 2);
}

TEST(FailureTest, InjectionNeverDropsBelowOneNode) {
  Cluster cluster(FastOptions());
  cluster.Step(3, 1.0);
  cluster.Step(3, 1.0, Crash(100));
  EXPECT_EQ(cluster.NumNodes(), 1);
  EXPECT_EQ(cluster.total_failures(), 2);
}

TEST(FailureTest, NextDecisionReplacesFailedNodesWithWarmups) {
  Cluster cluster(FastOptions());
  cluster.Step(4, 1.0);
  cluster.Step(4, 1.0);  // all warm
  cluster.Step(4, 1.0, Crash(2));
  StepStats stats = cluster.Step(4, 1.0);
  EXPECT_EQ(stats.nodes_added, 2);  // autoscaler re-provisions
  // Replacement nodes spend a warm-up inside this step.
  EXPECT_LT(stats.effective_nodes, 4.0);
  EXPECT_GT(stats.effective_nodes, 3.9);
}

TEST(FailureTest, ZeroRateNeverFails) {
  Cluster cluster(FastOptions());
  for (int i = 0; i < 50; ++i) {
    StepStats stats = cluster.Step(4, 1.0);
    EXPECT_EQ(stats.nodes_failed, 0);
  }
  EXPECT_EQ(cluster.total_failures(), 0);
}

TEST(FailureTest, AlwaysKeepsAtLeastOneNodeUnderExtremeRate) {
  Cluster::Options options = FastOptions();
  options.initial_nodes = 4;
  Cluster cluster(options);
  for (int i = 0; i < 10; ++i) {
    // Every node but one crashes at every step.
    const StepStats stats = cluster.Step(4, 1.0, Crash(4));
    EXPECT_EQ(stats.nodes_failed, 3);
    EXPECT_GE(cluster.NumNodes(), 1);
  }
}

// ------------------------------------------------------------------ Replay ---

TEST(ReplayTest, PerfectAllocationHasNoUnderProvisioning) {
  ts::TimeSeries workload;
  workload.values = {0.5, 1.2, 2.6, 0.3};
  Cluster::Options options = FastOptions();
  // Required nodes at theta 0.7: ceil(w / 0.7) = 1, 2, 4, 1.
  auto report =
      ReplayAllocation(workload, {1, 2, 4, 1}, options);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->under_provision_rate, 0.0);
  EXPECT_DOUBLE_EQ(report->over_provision_rate, 0.0);
}

TEST(ReplayTest, UnderAllocationDetected) {
  ts::TimeSeries workload;
  workload.values = {2.0, 2.0};
  auto report = ReplayAllocation(workload, {1, 3}, FastOptions());
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->under_provision_rate, 0.5);
}

TEST(ReplayTest, OverAllocationDetected) {
  ts::TimeSeries workload;
  workload.values = {0.5, 0.5};
  auto report = ReplayAllocation(workload, {5, 1}, FastOptions());
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->over_provision_rate, 0.5);
}

TEST(ReplayTest, LengthMismatchRejected) {
  ts::TimeSeries workload;
  workload.values = {1.0};
  EXPECT_FALSE(ReplayAllocation(workload, {1, 2}, FastOptions()).ok());
}

TEST(ReplayTest, EmptyRejected) {
  ts::TimeSeries workload;
  EXPECT_FALSE(ReplayAllocation(workload, {}, FastOptions()).ok());
}

TEST(ReplayTest, ThrashingAllocationCountsDirectionChanges) {
  ts::TimeSeries workload;
  workload.values.assign(10, 0.5);
  std::vector<int> flapping = {1, 3, 1, 3, 1, 3, 1, 3, 1, 3};
  auto report = ReplayAllocation(workload, flapping, FastOptions());
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->direction_changes, 7);
}

TEST(ReplayTest, MeanUtilizationComputed) {
  ts::TimeSeries workload;
  workload.values = {0.5, 0.5};
  Cluster::Options options = FastOptions();
  options.initial_nodes = 1;
  auto report = ReplayAllocation(workload, {1, 1}, options);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->mean_utilization, 0.5, 1e-9);
}

}  // namespace
}  // namespace rpas::simdb
