#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/scaling_config.h"
#include "simdb/cluster.h"
#include "simdb/replay.h"
#include "simdb/warmup.h"

namespace rpas::simdb {
namespace {

Cluster::Options FastOptions() {
  Cluster::Options options;
  options.step_seconds = 600.0;
  options.node_capacity = 1.0;
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
  // 1 node, theta 1, workload 1.3 => Eq. 3 needs 2 nodes; utilization
  // 1.3 * 0.7 = 0.91.
  StepStats stats = cluster.Step(1, 1.3);
  EXPECT_TRUE(stats.under_provisioned);
  EXPECT_NEAR(stats.avg_utilization, 0.91, 1e-9);
}

TEST(ClusterTest, NotUnderProvisionedAtThreshold) {
  Cluster cluster(FastOptions());
  cluster.Step(2, 0.0);
  StepStats stats = cluster.Step(2, 2.0);  // theta per node exactly
  EXPECT_FALSE(stats.under_provisioned);
  EXPECT_NEAR(stats.avg_utilization, Cluster::kTargetUtilization, 1e-12);
}

TEST(ClusterTest, LatencyBlowsUpNearSaturation) {
  Cluster cluster(FastOptions());
  cluster.Step(1, 0.0);
  // Utilizations 0.3 and 0.97 on one node of capacity theta = 1.
  StepStats low = cluster.Step(1, 0.3 / Cluster::kTargetUtilization);
  StepStats high = cluster.Step(1, 0.97 / Cluster::kTargetUtilization);
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

// Node capacity is Eq. 3's theta: on a warm, fault-free cluster the Eq. 3
// plan RequiredNodes(w) is neither under-provisioned nor in SLO violation,
// one node fewer is flagged, and every step's flag is exactly
// allocation < RequiredNodes(w), slack included.
TEST(ClusterCapacityPropertyTest, WarmStepsAgreeWithRequiredNodes) {
  Rng rng(26);
  for (int trial = 0; trial < 3000; ++trial) {
    core::ScalingConfig config;
    config.theta = std::exp(rng.Uniform(std::log(1e-3), std::log(1e3)));
    double ratio = rng.Uniform(0.0, 40.0);  // w / theta
    if (trial % 4 == 1) {  // at an integer
      ratio = std::ceil(ratio);
    } else if (trial % 4 == 2) {  // 1e-12 to 1e-6 off an integer
      const double offset = std::pow(10.0, rng.Uniform(-12.0, -6.0));
      ratio = std::ceil(ratio) + (rng.Bernoulli(0.5) ? offset : -offset);
    } else if (trial % 4 == 3) {  // w / theta - 1e-9 is the integer itself
      config.theta = 1.0;
      ratio = std::ceil(ratio) + 1e-9;
    }
    double workload = ratio * config.theta;
    if (trial == 0) {  // a tight 17-node plan
      config.theta = 1.0;
      workload = 16.5;
    }
    const int required = core::RequiredNodes(workload, config);

    Cluster::Options options = FastOptions();
    options.node_capacity = config.theta;
    options.checkpoint_gb = 0.0;  // nodes arrive warm
    options.warmup.base_latency_seconds = 0.0;
    options.warmup.jitter_fraction = 0.0;
    options.initial_nodes = required;
    Cluster cluster(options);
    const StepStats planned = cluster.Step(required, workload);
    ASSERT_EQ(planned.active_nodes, required);
    EXPECT_FALSE(planned.under_provisioned)
        << "w " << workload << " theta " << config.theta;
    EXPECT_FALSE(planned.slo_violated)
        << "w " << workload << " theta " << config.theta << " latency "
        << planned.p_latency_ms;
    if (required - 1 >= options.min_nodes) {
      EXPECT_TRUE(cluster.Step(required - 1, workload).under_provisioned)
          << "w " << workload << " theta " << config.theta;
    }
    const int allocation = 1 + static_cast<int>(rng.UniformInt(
                                   static_cast<uint64_t>(required) + 3));
    const StepStats any = cluster.Step(allocation, workload);
    ASSERT_EQ(any.active_nodes, allocation);
    EXPECT_EQ(any.under_provisioned, allocation < required)
        << "w " << workload << " theta " << config.theta << " nodes "
        << allocation;
  }
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
  // Required nodes at theta 1: ceil(w / 1) = 1, 2, 3, 1.
  auto report =
      ReplayAllocation(workload, {1, 2, 3, 1}, options);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->under_provision_rate, 0.0);
}

TEST(ReplayTest, UnderAllocationDetected) {
  ts::TimeSeries workload;
  workload.values = {2.0, 2.0};
  auto report = ReplayAllocation(workload, {1, 3}, FastOptions());
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->under_provision_rate, 0.5);
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
  EXPECT_NEAR(report->mean_utilization, 0.5 * Cluster::kTargetUtilization,
              1e-9);
}

}  // namespace
}  // namespace rpas::simdb
