#ifndef RPAS_SERVE_BATCHING_H_
#define RPAS_SERVE_BATCHING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "forecast/forecaster.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "ts/quantile_forecast.h"

namespace rpas::serve {

/// One tenant's forecast request against a specific model version.
struct ForecastRequest {
  uint64_t tenant_id = 0;
  ModelId model;
  forecast::ForecastInput input;
  /// Sampling seed for this request. Part of the request identity: the
  /// response is a pure function of (model version, input, seed), which is
  /// what makes batched and unbatched serving comparable bit-for-bit.
  uint64_t seed = 0;
};

/// Per-request outcome. Default-constructed status is OK, so responses can
/// be scatter-written by index from grouped execution.
struct ForecastResponse {
  Status status;
  ts::QuantileForecast forecast;  ///< valid only when status.ok()

  bool ok() const { return status.ok(); }
};

/// Cross-tenant batched inference engine.
///
/// Execute() answers a slate of requests, one response per request in
/// request order. In batched mode, requests naming the same model version
/// are coalesced: the version is acquired from the registry once and its
/// requests run through PredictBatch forward passes (tenants share the
/// pass — this is the cross-tenant batching of the serving tier). In
/// unbatched mode every request is served independently in arrival order,
/// acquiring its model each time — the baseline a multi-tenant serving
/// tier without coalescing would run.
///
/// Batched serving is two steps, so a caller can spread one slate over a
/// thread pool: Prepare() groups the slate and acquires each group's model,
/// then RunSlice() serves any range of a group. Execute() is Prepare()
/// followed by one whole-group slice per group.
///
/// Determinism contract: responses are bit-identical between the two modes,
/// across thread counts and across slice boundaries, because PredictBatch
/// guarantees element-wise bit-identity with PredictSeeded and request
/// seeds are part of the request, not the execution schedule.
class BatchEngine {
 public:
  struct Options {
    /// Coalesce same-version requests into one forward pass (the point of
    /// the engine); false serves strictly per-request, in request order.
    bool batch_across_tenants = true;
    /// Metrics sink for serve.engine.* instruments; null routes to
    /// obs::MetricsRegistry::Global(). Must outlive the engine.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// One model version's share of a slate.
  struct Group {
    ModelId model;
    /// Slate positions of the group's requests, in slate order.
    std::vector<size_t> indices;
    /// Why the version could not be acquired; every request of the group
    /// fails with it. OK when `forecaster` is set.
    Status status;
    /// The acquired version. Holding it keeps the weights alive for every
    /// slice even if the registry evicts the version meanwhile.
    std::shared_ptr<const forecast::Forecaster> forecaster;
  };

  /// `registry` must outlive the engine.
  BatchEngine(ModelRegistry* registry, Options options);

  /// Serves all requests; never fails as a whole — per-request errors
  /// (unknown version, load failure, malformed input) land in the
  /// corresponding response's status.
  std::vector<ForecastResponse> Execute(
      const std::vector<ForecastRequest>& requests);

  /// Batched step 1: groups `requests` by version in first-appearance
  /// order, counts serve.engine.{requests,batches,batch_size} for the
  /// slate, and acquires each group's model in group order.
  std::vector<Group> Prepare(const std::vector<ForecastRequest>& requests);

  /// Batched step 2: serves `group.indices[begin, end)` with one
  /// PredictBatch (per-request PredictSeeded when the model has no stacked
  /// forward or the batch fails), writes `(*responses)[group.indices[k]]`
  /// and counts the failed ones in serve.engine.request_errors. Slices
  /// write disjoint responses, so they may run concurrently.
  void RunSlice(const Group& group,
                const std::vector<ForecastRequest>& requests, size_t begin,
                size_t end, std::vector<ForecastResponse>* responses);

  const Options& options() const { return options_; }

 private:
  void ExecuteUnbatched(const std::vector<ForecastRequest>& requests,
                        std::vector<ForecastResponse>* responses);

  ModelRegistry* registry_;  // not owned
  Options options_;
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* batches_counter_ = nullptr;
  obs::Counter* errors_counter_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
};

}  // namespace rpas::serve

#endif  // RPAS_SERVE_BATCHING_H_
