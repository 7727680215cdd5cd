#include "serve/batching.h"

#include <map>
#include <memory>
#include <utility>

#include "common/parallel.h"

namespace rpas::serve {

BatchEngine::BatchEngine(ModelRegistry* registry, Options options)
    : registry_(registry), options_(options) {
  // Handles resolve once here; no serving call does a name lookup.
  obs::MetricsRegistry* metrics = obs::ResolveRegistry(options_.metrics);
  requests_counter_ = metrics->GetCounter("serve.engine.requests");
  batches_counter_ = metrics->GetCounter("serve.engine.batches");
  errors_counter_ = metrics->GetCounter("serve.engine.request_errors");
  batch_size_hist_ = metrics->GetHistogram("serve.engine.batch_size");
}

std::vector<ForecastResponse> BatchEngine::Execute(
    const std::vector<ForecastRequest>& requests) {
  std::vector<ForecastResponse> responses(requests.size());
  if (requests.empty()) {
    return responses;
  }
  if (!options_.batch_across_tenants) {
    ExecuteUnbatched(requests, &responses);
    return responses;
  }
  for (const Group& group : Prepare(requests)) {
    RunSlice(group, requests, 0, group.indices.size(), &responses);
  }
  return responses;
}

std::vector<BatchEngine::Group> BatchEngine::Prepare(
    const std::vector<ForecastRequest>& requests) {
  std::vector<Group> groups;
  if (requests.empty()) {
    return groups;
  }
  requests_counter_->Increment(static_cast<int64_t>(requests.size()));
  // Stable grouping: requests keep their slate order inside each group, and
  // groups are acquired in first-appearance order, so the registry sees a
  // sequence that is a pure function of the slate.
  std::map<ModelId, size_t> group_of;
  for (size_t i = 0; i < requests.size(); ++i) {
    auto [it, inserted] = group_of.emplace(requests[i].model, groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().model = requests[i].model;
    }
    groups[it->second].indices.push_back(i);
  }
  for (Group& group : groups) {
    batches_counter_->Increment();
    batch_size_hist_->Observe(static_cast<double>(group.indices.size()));
    auto acquired = registry_->Acquire(group.model);
    if (acquired.ok()) {
      group.forecaster = std::move(acquired).value();
    } else {
      group.status = acquired.status();
    }
  }
  return groups;
}

void BatchEngine::RunSlice(const Group& group,
                           const std::vector<ForecastRequest>& requests,
                           size_t begin, size_t end,
                           std::vector<ForecastResponse>* responses) {
  auto response = [&](size_t k) -> ForecastResponse& {
    return (*responses)[group.indices[begin + k]];
  };
  const size_t n = end - begin;
  if (!group.status.ok()) {
    for (size_t k = 0; k < n; ++k) {
      response(k).status = group.status;
    }
    errors_counter_->Increment(static_cast<int64_t>(n));
    return;
  }
  const forecast::Forecaster& model = *group.forecaster;

  std::vector<forecast::ForecastInput> inputs;
  std::vector<uint64_t> seeds;
  inputs.reserve(n);
  seeds.reserve(n);
  for (size_t k = begin; k < end; ++k) {
    inputs.push_back(requests[group.indices[k]].input);
    seeds.push_back(requests[group.indices[k]].seed);
  }

  if (model.SupportsBatchedInference()) {
    auto batch = model.PredictBatch(inputs, seeds);
    if (batch.ok()) {
      for (size_t k = 0; k < n; ++k) {
        response(k).forecast = std::move((*batch)[k]);
      }
      return;
    }
    // A whole-batch failure (e.g. one malformed context) falls through to
    // per-request serving so only the offending requests error.
  }
  // Per-request path for models without a stacked forward (or after a
  // batch failure). Responses are written to disjoint slots and
  // PredictSeeded is thread-safe on a fitted model, so the fan-out keeps
  // the determinism contract.
  ParallelFor(0, n, 1, [&](size_t k0, size_t k1) {
    for (size_t k = k0; k < k1; ++k) {
      auto result = model.PredictSeeded(inputs[k], seeds[k]);
      if (result.ok()) {
        response(k).forecast = std::move(*result);
      } else {
        response(k).status = result.status();
      }
    }
  });
  for (size_t k = 0; k < n; ++k) {
    if (!response(k).ok()) {
      errors_counter_->Increment();
    }
  }
}

void BatchEngine::ExecuteUnbatched(
    const std::vector<ForecastRequest>& requests,
    std::vector<ForecastResponse>* responses) {
  requests_counter_->Increment(static_cast<int64_t>(requests.size()));
  for (size_t i = 0; i < requests.size(); ++i) {
    batches_counter_->Increment();
    batch_size_hist_->Observe(1.0);
    ForecastResponse& response = (*responses)[i];
    auto acquired = registry_->Acquire(requests[i].model);
    if (acquired.ok()) {
      auto result = (*acquired)->PredictSeeded(requests[i].input,
                                               requests[i].seed);
      if (result.ok()) {
        response.forecast = std::move(*result);
      } else {
        response.status = result.status();
      }
    } else {
      response.status = acquired.status();
    }
    if (!response.ok()) {
      errors_counter_->Increment();
    }
  }
}

}  // namespace rpas::serve
