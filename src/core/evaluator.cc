#include "core/evaluator.h"

#include <algorithm>

#include "common/logging.h"

namespace rpas::core {

ProvisioningReport EvaluateAllocation(const std::vector<double>& realized,
                                      const std::vector<int>& allocation,
                                      const ScalingConfig& config) {
  RPAS_CHECK(realized.size() == allocation.size())
      << "workload/allocation length mismatch";
  ProvisioningReport report;
  report.num_steps = realized.size();
  if (realized.empty()) {
    return report;
  }
  size_t under = 0;
  size_t over = 0;
  double alloc_sum = 0.0;
  double required_sum = 0.0;
  for (size_t t = 0; t < realized.size(); ++t) {
    const int required = RequiredNodes(realized[t], config);
    if (allocation[t] < required) {
      ++under;
    } else if (allocation[t] > required) {
      ++over;
    }
    alloc_sum += allocation[t];
    required_sum += required;
  }
  const double n = static_cast<double>(realized.size());
  report.under_provision_rate = static_cast<double>(under) / n;
  report.over_provision_rate = static_cast<double>(over) / n;
  report.mean_allocated_nodes = alloc_sum / n;
  report.mean_required_nodes = required_sum / n;
  return report;
}

namespace {
Status ValidateRange(const ts::TimeSeries& series, size_t eval_start,
                     size_t num_steps) {
  if (num_steps == 0) {
    return Status::InvalidArgument("evaluation range is empty");
  }
  if (eval_start + num_steps > series.size()) {
    return Status::InvalidArgument(
        "evaluation range extends past the series");
  }
  if (eval_start == 0) {
    return Status::InvalidArgument(
        "evaluation must start after some observable history");
  }
  return Status::OK();
}
}  // namespace

Result<std::vector<int>> RunReactiveStrategy(const ReactiveStrategy& strategy,
                                             const ts::TimeSeries& series,
                                             size_t eval_start,
                                             size_t num_steps,
                                             const ScalingConfig& config) {
  RPAS_RETURN_IF_ERROR(ValidateRange(series, eval_start, num_steps));
  std::vector<int> allocation(num_steps);
  for (size_t i = 0; i < num_steps; ++i) {
    const size_t t = eval_start + i;
    // Observed history strictly before t.
    std::vector<double> recent(series.values.begin(),
                               series.values.begin() + static_cast<long>(t));
    allocation[i] = strategy.Decide(recent, config);
  }
  return allocation;
}

Result<std::vector<int>> RunPredictiveStrategy(
    const forecast::Forecaster& model, const QuantileAllocator& allocator,
    const ts::TimeSeries& series, size_t eval_start, size_t num_steps,
    const ScalingConfig& config) {
  RPAS_RETURN_IF_ERROR(ValidateRange(series, eval_start, num_steps));
  const size_t context = model.ContextLength();
  const size_t horizon = model.Horizon();
  if (eval_start < context) {
    return Status::InvalidArgument(
        "not enough history before eval_start for the model context");
  }
  std::vector<int> allocation;
  allocation.reserve(num_steps);
  for (size_t planned = 0; planned < num_steps; planned += horizon) {
    const size_t t = eval_start + planned;
    RPAS_ASSIGN_OR_RETURN(
        ts::QuantileForecast fc,
        model.Predict(forecast::ForecastInput::Window(series, t, context)));
    RPAS_ASSIGN_OR_RETURN(std::vector<int> plan,
                          allocator.Allocate(fc, config));
    const size_t take = std::min(horizon, num_steps - planned);
    allocation.insert(allocation.end(), plan.begin(),
                      plan.begin() + static_cast<long>(take));
  }
  return allocation;
}

Result<std::vector<int>> RunPaddedPointStrategy(
    const forecast::Forecaster& model, PaddingEnhancement* padding,
    const ts::TimeSeries& series, size_t eval_start, size_t num_steps,
    const ScalingConfig& config) {
  RPAS_CHECK(padding != nullptr);
  RPAS_RETURN_IF_ERROR(ValidateRange(series, eval_start, num_steps));
  const size_t context = model.ContextLength();
  const size_t horizon = model.Horizon();
  if (eval_start < context) {
    return Status::InvalidArgument(
        "not enough history before eval_start for the model context");
  }
  std::vector<int> allocation;
  allocation.reserve(num_steps);
  for (size_t planned = 0; planned < num_steps; planned += horizon) {
    const size_t t = eval_start + planned;
    const forecast::ForecastInput input =
        forecast::ForecastInput::Window(series, t, context);
    RPAS_ASSIGN_OR_RETURN(std::vector<double> point,
                          model.PredictPoint(input));
    const std::vector<double> padded = padding->Pad(point);
    const size_t take = std::min(horizon, num_steps - planned);
    for (size_t h = 0; h < take; ++h) {
      allocation.push_back(
          RequiredNodes(std::max(padded[h], 0.0), config));
    }
    // Feed realized outcomes of this planning window back into the pad
    // estimator (available once the window has elapsed).
    for (size_t h = 0; h < take; ++h) {
      padding->Observe(series.values[t + h], point[h]);
    }
  }
  return allocation;
}

}  // namespace rpas::core
