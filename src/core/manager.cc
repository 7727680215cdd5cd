#include "core/manager.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/uncertainty.h"

namespace rpas::core {

ScalingSmoother::ScalingSmoother(Options options) : options_(options) {
  RPAS_CHECK(options_.max_step_delta >= 0);
  RPAS_CHECK(options_.scale_in_cooldown >= 0);
}

std::vector<int> ScalingSmoother::Smooth(const std::vector<int>& plan,
                                         int current_nodes) const {
  std::vector<int> out;
  out.reserve(plan.size());
  int prev = current_nodes;
  int cooldown = 0;
  for (int target : plan) {
    int next = target;
    if (options_.max_step_delta > 0) {
      next = std::clamp(next, prev - options_.max_step_delta,
                        prev + options_.max_step_delta);
    }
    // Scale-out is applied immediately; scale-in honours the cooldown so
    // short dips do not trigger flapping.
    if (next < prev) {
      if (cooldown > 0) {
        next = prev;
        --cooldown;
      } else {
        cooldown = options_.scale_in_cooldown;
      }
    } else if (next > prev) {
      cooldown = 0;
    }
    out.push_back(next);
    prev = next;
  }
  return out;
}

RobustAutoScalingManager::RobustAutoScalingManager(
    const forecast::Forecaster* forecaster,
    std::unique_ptr<QuantileAllocator> allocator, ScalingConfig config)
    : forecaster_(forecaster),
      allocator_(std::move(allocator)),
      config_(config) {
  RPAS_CHECK(forecaster_ != nullptr);
  RPAS_CHECK(allocator_ != nullptr);
}

void RobustAutoScalingManager::SetSmoother(ScalingSmoother::Options options) {
  smoother_ = std::make_unique<ScalingSmoother>(options);
}

void RobustAutoScalingManager::SetObservability(
    obs::MetricsRegistry* metrics, obs::TraceBuffer* trace) {
  metrics_ = metrics;
  trace_ = trace;
}

size_t RobustAutoScalingManager::ContextLength() const {
  return forecaster_->ContextLength();
}

size_t RobustAutoScalingManager::Horizon() const {
  return forecaster_->Horizon();
}

Result<RobustAutoScalingManager::Plan> RobustAutoScalingManager::PlanNext(
    const ts::TimeSeries& history, int current_nodes) const {
  const size_t context = forecaster_->ContextLength();
  if (history.size() < context) {
    return Status::InvalidArgument(
        "history shorter than the forecaster's context length");
  }
  const forecast::ForecastInput input =
      forecast::ForecastInput::Window(history, history.size(), context);

  obs::MetricsRegistry* metrics = obs::ResolveRegistry(metrics_);
  obs::TraceBuffer* trace = obs::ResolveTrace(trace_);
  metrics->GetCounter("manager.plans")->Increment();
  obs::Span plan_span(trace, "manager.plan");

  Result<ts::QuantileForecast> predicted = [&] {
    obs::Span forecast_span(trace, "manager.forecast");
    return forecaster_->Predict(input);
  }();
  RPAS_ASSIGN_OR_RETURN(ts::QuantileForecast fc, std::move(predicted));
  // Validate before allocating: a faulted forecaster (NaN/Inf output) must
  // surface as a detectable error, not propagate garbage into node counts.
  for (size_t h = 0; h < fc.Horizon(); ++h) {
    for (size_t q = 0; q < fc.Levels().size(); ++q) {
      if (!std::isfinite(fc.ValueAtIndex(h, q))) {
        return Status::Internal(
            "forecaster produced a non-finite quantile value");
      }
    }
  }
  Result<std::vector<int>> allocated = [&] {
    obs::Span allocate_span(trace, "manager.allocate");
    return allocator_->Allocate(fc, config_);
  }();
  RPAS_ASSIGN_OR_RETURN(std::vector<int> nodes, std::move(allocated));
  if (smoother_) {
    nodes = smoother_->Smooth(nodes, current_nodes);
  }
  Plan plan;
  plan.uncertainty = QuantileUncertaintyPerStep(fc);
  plan.forecast = std::move(fc);
  plan.nodes = std::move(nodes);
  return plan;
}

}  // namespace rpas::core
