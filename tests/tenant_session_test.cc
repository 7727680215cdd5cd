// Differential test of the two drivers of core::TenantSession: a 1-tenant
// serve::RunFleet and core::RunOnlineLoop on the same tenant must make the
// same scaling decision at every step. Both share the series (regenerated
// through the fleet's seed derivation), theta, initial nodes, cluster and
// fault seeds, deterministic MLP versions restored from the registry's
// checkpoints, RobustQuantileAllocator(tau), and a fallback plan at least
// one round long, so the loop's early-replan rule never fires.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/online_loop.h"
#include "core/strategies.h"
#include "forecast/mlp.h"
#include "obs/metrics.h"
#include "serve/fleet.h"
#include "serve/registry.h"
#include "trace/generator.h"

namespace rpas {
namespace {

using forecast::MlpForecaster;

constexpr size_t kContext = 12;
constexpr size_t kHorizon = 8;
constexpr size_t kHistory = 48;
constexpr size_t kSteps = 72;
constexpr size_t kReplanEvery = 6;
constexpr double kTau = 0.9;

// Tenant 0's seeds as RunFleet derives them: DeriveSeed(seed, salt + id).
constexpr uint64_t kTraceSalt = 0x51AE;
constexpr uint64_t kClusterSalt = 0xC105;
constexpr uint64_t kFaultSalt = 0xFA17;

MlpForecaster::Options MlpOptions(size_t version) {
  MlpForecaster::Options options;
  options.context_length = kContext;
  options.horizon = kHorizon;
  options.hidden_dim = version == 1 ? 8 : 16;
  options.num_hidden_layers = 1;
  options.batch_size = 16;
  options.train.steps = 40;
  options.train.lr = 2e-3;
  options.seed = 7 + version;
  return options;
}

/// Checkpoint of MLP version `version` (1 or 2), trained once per process.
/// SaveCheckpoint commits by atomic rename, so concurrent test processes
/// only ever read a complete file (training is deterministic: every process
/// writes the same bytes).
const std::string& CheckpointPath(size_t version) {
  static const std::vector<std::string>* paths = [] {
    auto* p = new std::vector<std::string>;
    const ts::TimeSeries train =
        trace::SyntheticTraceGenerator(trace::AlibabaProfile(), 7)
            .GenerateCpu(600);
    for (size_t v = 1; v <= 2; ++v) {
      const std::string path =
          "/tmp/rpas_tenant_session_test_mlp_v" + std::to_string(v) + ".ckpt";
      MlpForecaster model(MlpOptions(v));
      RPAS_CHECK(model.Fit(train).ok());
      RPAS_CHECK(model.SaveCheckpoint(path).ok());
      p->push_back(path);
    }
    return p;
  }();
  return (*paths)[version - 1];
}

std::unique_ptr<MlpForecaster> RestoredMlp(size_t version) {
  auto model = std::make_unique<MlpForecaster>(MlpOptions(version));
  RPAS_CHECK(model->LoadCheckpoint(CheckpointPath(version)).ok());
  return model;
}

serve::FleetOptions FleetOptions() {
  serve::FleetOptions options;
  options.num_tenants = 1;
  options.num_steps = kSteps;
  options.history_steps = kHistory;
  options.replan_every = kReplanEvery;
  options.seed = 321;
  options.tau = kTau;
  // About sixteen nodes per tenant: fine enough that any difference in the
  // forecast a round plans from shows up in the node counts.
  options.theta_divisor = 16.0;
  options.degradation.fallback_plan_steps = kReplanEvery;
  options.collect_decisions = true;
  return options;
}

/// Runs the fleet with and without cross-tenant batching. With `metrics`,
/// each run reports to its own registry, appended there.
std::vector<serve::FleetResult> RunFleets(
    const serve::FleetOptions& base,
    std::vector<std::unique_ptr<obs::MetricsRegistry>>* metrics = nullptr) {
  serve::ModelRegistry registry(serve::ModelRegistry::Options{});
  for (size_t v = 1; v <= 2; ++v) {
    RPAS_CHECK(registry
                   .RegisterVersion({"mlp", v}, CheckpointPath(v),
                                    [v] {
                                      return std::make_unique<MlpForecaster>(
                                          MlpOptions(v));
                                    })
                   .ok());
  }
  std::vector<serve::FleetResult> results;
  for (bool batched : {true, false}) {
    serve::FleetOptions options = base;
    options.batched = batched;
    if (metrics != nullptr) {
      metrics->push_back(std::make_unique<obs::MetricsRegistry>());
      options.metrics = metrics->back().get();
    }
    auto result = serve::RunFleet(&registry, {{"mlp", 1}}, options);
    RPAS_CHECK(result.ok()) << result.status().ToString();
    results.push_back(std::move(result).value());
  }
  return results;
}

/// The single-tenant loop the fleet's tenant 0 runs.
struct LoopTenant {
  ts::TimeSeries series;
  core::ScalingConfig config;
  core::OnlineLoopOptions options;
};

LoopTenant MatchingLoop(const serve::FleetOptions& fleet) {
  LoopTenant tenant;
  tenant.series =
      trace::SyntheticTraceGenerator(fleet.profile,
                                     DeriveSeed(fleet.seed, kTraceSalt))
          .GenerateCpu(fleet.history_steps + fleet.num_steps);
  const ts::TimeSeries history = tenant.series.Slice(0, fleet.history_steps);
  tenant.config.theta = std::max(history.Mean() / fleet.theta_divisor, 1e-9);
  tenant.options.replan_every = fleet.replan_every;
  tenant.options.degradation = fleet.degradation;
  tenant.options.cluster.node_capacity = tenant.config.theta;
  tenant.options.cluster.seed = DeriveSeed(fleet.seed, kClusterSalt);
  tenant.options.cluster.initial_nodes =
      core::RequiredNodes(history.values.back(), tenant.config);
  if (fleet.faults.Any()) {
    tenant.options.faults = fleet.faults;
    tenant.options.faults.seed = DeriveSeed(fleet.faults.seed, kFaultSalt);
  }
  return tenant;
}

std::unique_ptr<core::RobustAutoScalingManager> Manager(
    const forecast::Forecaster* model, const core::ScalingConfig& config) {
  return std::make_unique<core::RobustAutoScalingManager>(
      model, std::make_unique<core::RobustQuantileAllocator>(kTau), config);
}

/// Every step's ScalingDecision fields, plus the round accounting.
void ExpectSameDecisions(const serve::FleetResult& fleet,
                         const core::OnlineLoopResult& loop) {
  ASSERT_EQ(fleet.decisions.size(), loop.steps.size());
  for (size_t i = 0; i < loop.steps.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "step " << i);
    const obs::ScalingDecision& d = fleet.decisions[i];
    const simdb::StepStats& s = loop.steps[i];
    EXPECT_EQ(d.step, s.step);
    EXPECT_EQ(d.target_nodes, s.target_nodes);
    EXPECT_EQ(d.active_nodes, s.active_nodes);
    EXPECT_EQ(d.workload, s.workload);
    EXPECT_EQ(d.utilization, s.avg_utilization);
    EXPECT_EQ(d.under_provisioned, s.under_provisioned);
    EXPECT_EQ(d.slo_violated, s.slo_violated);
    EXPECT_EQ(d.faulted, s.faulted);
  }
  ASSERT_EQ(fleet.tenants.size(), 1u);
  const serve::TenantSummary& tenant = fleet.tenants[0];
  EXPECT_EQ(tenant.rounds, loop.plans_made);
  EXPECT_EQ(tenant.stale_rounds, loop.stale_plans);
  EXPECT_EQ(tenant.fallback_rounds, loop.fallback_plans);
  EXPECT_EQ(tenant.faulted_steps, loop.faulted_steps);
  EXPECT_EQ(tenant.under_provision_rate, loop.under_provision_rate);
  EXPECT_EQ(tenant.over_provision_rate, loop.over_provision_rate);
  EXPECT_EQ(tenant.mean_utilization, loop.mean_utilization);
  EXPECT_EQ(tenant.mean_staleness_steps, loop.mean_staleness_points);
}

/// The select.* and stream.refresh.* counters on `metrics`, by name: the
/// namespace both drivers mirror their refresh and selection totals into.
std::map<std::string, int64_t> ControlCounters(
    const obs::MetricsRegistry& metrics) {
  std::map<std::string, int64_t> counters;
  for (const auto& [name, counter] : metrics.Counters()) {
    if (name.rfind("select.", 0) == 0 ||
        name.rfind("stream.refresh.", 0) == 0) {
      counters[name] = counter->value();
    }
  }
  return counters;
}

/// Batch refresh, selection off: one restored MLP plans every fresh round.
core::OnlineLoopResult RunPlainLoop(const serve::FleetOptions& fleet) {
  const LoopTenant tenant = MatchingLoop(fleet);
  const std::unique_ptr<MlpForecaster> model = RestoredMlp(1);
  const auto manager = Manager(model.get(), tenant.config);
  auto result = core::RunOnlineLoop(*manager, tenant.series,
                                    fleet.history_steps, fleet.num_steps,
                                    tenant.options);
  RPAS_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(TenantSessionDifferentialTest, NoFaults) {
  const serve::FleetOptions fleet = FleetOptions();
  const core::OnlineLoopResult loop = RunPlainLoop(fleet);
  EXPECT_EQ(loop.plans_made, kSteps / kReplanEvery);
  for (const serve::FleetResult& result : RunFleets(fleet)) {
    ExpectSameDecisions(result, loop);
  }
}

TEST(TenantSessionDifferentialTest, ForecasterTimeoutNanAndStaleFaults) {
  serve::FleetOptions fleet = FleetOptions();
  fleet.faults.forecaster_timeout_rate = 0.25;
  fleet.faults.forecaster_timeout_attempts = 3;  // outlasts the 2 retries
  fleet.faults.forecaster_nan_rate = 0.25;       // one attempt, retried
  fleet.faults.stale_forecast_rate = 0.25;
  fleet.faults.seed = 5;
  const core::OnlineLoopResult loop = RunPlainLoop(fleet);
  // The schedule must exercise every disposition.
  EXPECT_GT(loop.stale_plans, 0u);
  EXPECT_GT(loop.fallback_plans, 0u);
  EXPECT_GT(loop.retried_plans, 0u);
  for (const serve::FleetResult& result : RunFleets(fleet)) {
    ExpectSameDecisions(result, loop);
    EXPECT_EQ(result.tenants[0].fault_rounds,
              loop.forecaster_faults - loop.retried_plans);
  }
}

TEST(TenantSessionDifferentialTest, ClusterFaults) {
  serve::FleetOptions fleet = FleetOptions();
  fleet.faults.actuation_delay_rate = 0.2;
  fleet.faults.partial_scaleout_rate = 0.2;
  fleet.faults.crash_rate = 0.2;
  fleet.faults.spike_rate = 0.2;
  fleet.faults.seed = 9;
  const core::OnlineLoopResult loop = RunPlainLoop(fleet);
  EXPECT_GT(loop.faulted_steps, 0u);
  for (const serve::FleetResult& result : RunFleets(fleet)) {
    ExpectSameDecisions(result, loop);
  }
}

TEST(TenantSessionDifferentialTest, IncrementalRefresh) {
  serve::FleetOptions fleet = FleetOptions();
  fleet.refresh_mode = core::RefreshMode::kIncremental;
  fleet.refresh_model_factory = [](const serve::ModelId& id) {
    return std::unique_ptr<forecast::Forecaster>(
        new MlpForecaster(MlpOptions(id.version)));
  };
  // The loop refreshes a model fitted on the same history, exactly as the
  // fleet fits each tenant's private forecaster.
  const LoopTenant tenant = MatchingLoop(fleet);
  MlpForecaster model(MlpOptions(1));
  ASSERT_TRUE(model.Fit(tenant.series.Slice(0, kHistory)).ok());
  const auto manager = Manager(&model, tenant.config);
  core::OnlineLoopOptions options = tenant.options;
  options.streaming.refresh_mode = core::RefreshMode::kIncremental;
  options.streaming.refresh_target = &model;
  options.streaming.ring_capacity = 2 * kReplanEvery;  // the fleet default
  obs::MetricsRegistry loop_metrics;
  options.metrics = &loop_metrics;
  auto loop = core::RunOnlineLoop(*manager, tenant.series, kHistory, kSteps,
                                  options);
  ASSERT_TRUE(loop.ok()) << loop.status().ToString();
  EXPECT_GT(loop->refresh.fine_tunes, 0u);
  const std::map<std::string, int64_t> loop_counters =
      ControlCounters(loop_metrics);
  EXPECT_EQ(loop_counters.at("stream.refresh.fine_tunes"),
            static_cast<int64_t>(loop->refresh.fine_tunes));
  std::vector<std::unique_ptr<obs::MetricsRegistry>> fleet_metrics;
  const std::vector<serve::FleetResult> results =
      RunFleets(fleet, &fleet_metrics);
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectSameDecisions(results[i], *loop);
    EXPECT_EQ(results[i].refresh.fine_tunes, loop->refresh.fine_tunes);
    EXPECT_EQ(ControlCounters(*fleet_metrics[i]), loop_counters);
  }
}

TEST(TenantSessionDifferentialTest, AdaptiveSelectionWithPrescaling) {
  serve::FleetOptions fleet = FleetOptions();
  fleet.selection.enabled = true;
  fleet.selection.ladder = {{"mlp", 1}, {"mlp", 2}};
  fleet.selection.prescale = true;
  // A loose wQL bound with short dwell makes the selector probe down.
  fleet.selection.selector.wql_bound = 1.0;
  fleet.selection.selector.min_dwell = 1;
  fleet.selection.selector.wql_window = 2;
  fleet.selection.prescaler.spike_ratio = 1.0;
  fleet.selection.prescaler.min_spike_nodes = 1;

  const LoopTenant tenant = MatchingLoop(fleet);
  const std::unique_ptr<MlpForecaster> v1 = RestoredMlp(1);
  const std::unique_ptr<MlpForecaster> v2 = RestoredMlp(2);
  const auto manager_v1 = Manager(v1.get(), tenant.config);
  const auto manager_v2 = Manager(v2.get(), tenant.config);
  core::OnlineLoopOptions options = tenant.options;
  options.selection.mode = core::SelectionMode::kAdaptive;
  options.selection.ladder = {manager_v1.get(), manager_v2.get()};
  options.selection.classifier = fleet.selection.classifier;
  options.selection.selector = fleet.selection.selector;
  options.selection.prescale = fleet.selection.prescale;
  options.selection.prescaler = fleet.selection.prescaler;
  obs::MetricsRegistry loop_metrics;
  options.metrics = &loop_metrics;
  auto loop = core::RunOnlineLoop(*manager_v1, tenant.series, kHistory,
                                  kSteps, options);
  ASSERT_TRUE(loop.ok()) << loop.status().ToString();
  EXPECT_GT(loop->selection.selector.switches, 0u);
  EXPECT_GT(loop->selection.prescaler.activations, 0u);
  const std::map<std::string, int64_t> loop_counters =
      ControlCounters(loop_metrics);
  EXPECT_EQ(loop_counters.at("select.switches"),
            static_cast<int64_t>(loop->selection.selector.switches));
  EXPECT_EQ(loop_counters.at("select.prescale.activations"),
            static_cast<int64_t>(loop->selection.prescaler.activations));
  std::vector<std::unique_ptr<obs::MetricsRegistry>> fleet_metrics;
  const std::vector<serve::FleetResult> results =
      RunFleets(fleet, &fleet_metrics);
  for (size_t i = 0; i < results.size(); ++i) {
    const serve::FleetResult& result = results[i];
    EXPECT_EQ(ControlCounters(*fleet_metrics[i]), loop_counters);
    ExpectSameDecisions(result, *loop);
    const serve::TenantSummary& t = result.tenants[0];
    EXPECT_EQ(t.final_tier, loop->selection.final_tier);
    EXPECT_EQ(t.selector.switches, loop->selection.selector.switches);
    EXPECT_EQ(t.prescale.activations, loop->selection.prescaler.activations);
    EXPECT_EQ(t.prescale.floor_raised_steps,
              loop->selection.prescaler.floor_raised_steps);
  }
}

}  // namespace
}  // namespace rpas
