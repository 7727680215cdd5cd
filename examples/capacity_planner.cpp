// Capacity planner: the full paper pipeline as a command-line tool.
//
// Generates (or loads) a cluster CPU trace, trains a probabilistic
// forecaster, runs the chosen auto-scaling strategy closed-loop over a
// held-out evaluation window, and replays the resulting allocation on the
// disaggregated-database cluster simulator — reporting under-/over-
// provisioning, SLO violations, utilization, node-hours and thrashing.
//
// Usage:
//   capacity_planner [--trace=alibaba|google] [--model=tft|deepar]
//                    [--head=studentt|gaussian]   (DeepAR only)
//                    [--strategy=point|robust|adaptive|reactive]
//                    [--tau=0.9] [--tau2=0.99] [--days=21] [--smooth]
//                    [--online]   (closed-loop: re-forecast as data arrives)
//                    [--csv=FILE]                 (export trace to CSV)
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/evaluator.h"
#include "core/manager.h"
#include "core/online_loop.h"
#include "core/strategies.h"
#include "core/uncertainty.h"
#include "forecast/deepar.h"
#include "forecast/tft.h"
#include "simdb/replay.h"
#include "trace/generator.h"

namespace {

struct Args {
  std::string trace = "alibaba";
  std::string model = "tft";
  std::string head = "studentt";
  std::string strategy = "robust";
  double tau = 0.9;
  double tau2 = 0.99;
  int days = 21;
  bool smooth = false;
  bool online = false;
  std::string csv;
};

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--trace=")) {
      args.trace = v;
    } else if (const char* v = value("--model=")) {
      args.model = v;
    } else if (const char* v = value("--head=")) {
      args.head = v;
    } else if (const char* v = value("--strategy=")) {
      args.strategy = v;
    } else if (const char* v = value("--tau=")) {
      args.tau = std::atof(v);
    } else if (const char* v = value("--tau2=")) {
      args.tau2 = std::atof(v);
    } else if (const char* v = value("--days=")) {
      args.days = std::atoi(v);
    } else if (arg == "--smooth") {
      args.smooth = true;
    } else if (arg == "--online") {
      args.online = true;
    } else if (const char* v = value("--csv=")) {
      args.csv = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpas;
  const Args args = Parse(argc, argv);
  constexpr size_t kDay = 144;
  constexpr size_t kContext = 72;
  constexpr size_t kHorizon = 72;

  // --- Workload trace ---
  trace::TraceProfile profile = args.trace == "google"
                                    ? trace::GoogleProfile()
                                    : trace::AlibabaProfile();
  trace::SyntheticTraceGenerator generator(profile, /*seed=*/2024);
  ts::TimeSeries series =
      generator.GenerateCpu(static_cast<size_t>(args.days) * kDay);
  if (!args.csv.empty()) {
    Status s = ts::SaveTimeSeriesCsv(args.csv, series);
    std::printf("trace exported to %s: %s\n", args.csv.c_str(),
                s.ToString().c_str());
  }
  const size_t eval_steps = 3 * kDay;
  const size_t eval_start = series.size() - eval_steps;
  ts::TimeSeries train = series.Slice(0, eval_start);
  std::printf("trace=%s steps=%zu train=%zu eval=%zu\n", args.trace.c_str(),
              series.size(), train.size(), eval_steps);

  core::ScalingConfig config;
  config.theta = series.Mean() / 4.0;
  config.min_nodes = 1;

  // --- Forecaster ---
  std::unique_ptr<forecast::Forecaster> model;
  if (args.model == "deepar") {
    forecast::DeepArForecaster::Options options;
    options.context_length = kContext;
    options.horizon = kHorizon;
    options.hidden_dim = 32;
    options.batch_size = 8;
    options.train.steps = 200;
    options.levels = forecast::ScalingQuantileLevels();
    options.head = args.head == "gaussian"
                       ? forecast::DeepArForecaster::Head::kGaussian
                       : forecast::DeepArForecaster::Head::kStudentT;
    model = std::make_unique<forecast::DeepArForecaster>(options);
  } else {
    forecast::TftForecaster::Options options;
    options.context_length = kContext;
    options.horizon = kHorizon;
    options.d_model = 16;
    options.batch_size = 2;
    options.train.steps = 250;
    options.levels = forecast::ScalingQuantileLevels();
    model = std::make_unique<forecast::TftForecaster>(options);
  }
  Status fit = model->Fit(train);
  if (!fit.ok()) {
    std::fprintf(stderr, "Fit failed: %s\n", fit.ToString().c_str());
    return 1;
  }
  std::printf("model=%s trained\n", model->Name().c_str());

  // --- Online mode: closed-loop re-planning inside the simulator ---
  if (args.online) {
    std::unique_ptr<core::QuantileAllocator> allocator;
    if (args.strategy == "adaptive") {
      allocator = std::make_unique<core::AdaptiveQuantileAllocator>(
          args.tau, args.tau2, /*rho=*/0.0);
    } else if (args.strategy == "point") {
      allocator = std::make_unique<core::PointForecastAllocator>();
    } else {
      allocator = std::make_unique<core::RobustQuantileAllocator>(args.tau);
    }
    core::RobustAutoScalingManager manager(model.get(),
                                           std::move(allocator), config);
    if (args.smooth) {
      manager.SetSmoother({.max_step_delta = 3, .scale_in_cooldown = 3});
    }
    core::OnlineLoopOptions loop;
    loop.cluster.node_capacity = config.theta;
    loop.cluster.initial_nodes = 4;
    auto result =
        core::RunOnlineLoop(manager, series, eval_start, eval_steps, loop);
    if (!result.ok()) {
      std::fprintf(stderr, "online loop failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("\n--- online closed-loop run (%zu plans) ---\n",
                result->plans_made);
    std::printf("under-provisioning rate : %.3f\n",
                result->under_provision_rate);
    std::printf("over-provisioning rate  : %.3f\n",
                result->over_provision_rate);
    std::printf("mean utilization        : %.3f\n",
                result->mean_utilization);
    std::printf("SLO violation rate      : %.3f\n",
                result->slo_violation_rate);
    std::printf("node-steps (cost)       : %lld\n",
                static_cast<long long>(result->total_node_steps));
    std::printf("scale events            : %d (direction changes %d)\n",
                result->scale_events, result->direction_changes);
    std::printf("mean forecast U         : %.3f\n",
                result->mean_uncertainty);
    return 0;
  }

  // --- Allocation over the evaluation window ---
  Result<std::vector<int>> alloc = [&]() -> Result<std::vector<int>> {
    if (args.strategy == "reactive") {
      core::ReactiveAvgStrategy reactive(6, 6.0);
      return core::RunReactiveStrategy(reactive, series, eval_start,
                                       eval_steps, config);
    }
    if (args.strategy == "point") {
      core::PointForecastAllocator point;
      return core::RunPredictiveStrategy(*model, point, series, eval_start,
                                         eval_steps, config);
    }
    if (args.strategy == "adaptive") {
      core::AdaptiveQuantileAllocator adaptive(args.tau, args.tau2,
                                               /*rho=*/0.0);
      return core::RunPredictiveStrategy(*model, adaptive, series,
                                         eval_start, eval_steps, config);
    }
    core::RobustQuantileAllocator robust(args.tau);
    return core::RunPredictiveStrategy(*model, robust, series, eval_start,
                                       eval_steps, config);
  }();
  if (!alloc.ok()) {
    std::fprintf(stderr, "allocation failed: %s\n",
                 alloc.status().ToString().c_str());
    return 1;
  }
  std::vector<int> plan = *alloc;
  if (args.smooth) {
    core::ScalingSmoother smoother(
        {.max_step_delta = 3, .scale_in_cooldown = 3});
    plan = smoother.Smooth(plan, plan.front());
    std::printf("thrashing control enabled (delta<=3, cooldown 3)\n");
  }

  // --- Analytic provisioning metrics (paper §IV-C) ---
  std::vector<double> realized(
      series.values.begin() + static_cast<long>(eval_start),
      series.values.end());
  const auto report = core::EvaluateAllocation(realized, plan, config);
  std::printf("\n--- provisioning (strategy=%s tau=%.2f) ---\n",
              args.strategy.c_str(), args.tau);
  std::printf("under-provisioning rate : %.3f\n",
              report.under_provision_rate);
  std::printf("over-provisioning rate  : %.3f\n",
              report.over_provision_rate);
  std::printf("mean allocated nodes    : %.2f (required %.2f)\n",
              report.mean_allocated_nodes, report.mean_required_nodes);

  // --- Cluster-simulator replay (realized utilization, SLO, thrashing) ---
  ts::TimeSeries eval_series;
  eval_series.values = realized;
  eval_series.step_minutes = series.step_minutes;
  simdb::Cluster::Options cluster;
  cluster.node_capacity = config.theta;
  cluster.initial_nodes = plan.front();
  auto replay = simdb::ReplayAllocation(eval_series, plan, cluster);
  if (!replay.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 replay.status().ToString().c_str());
    return 1;
  }
  std::printf("\n--- simulator replay ---\n");
  std::printf("mean utilization        : %.3f\n", replay->mean_utilization);
  std::printf("SLO violation rate      : %.3f\n",
              replay->slo_violation_rate);
  std::printf("node-steps (cost)       : %lld\n",
              static_cast<long long>(replay->total_node_steps));
  std::printf("scale events            : %d (direction changes %d)\n",
              replay->scale_events, replay->direction_changes);
  return 0;
}
