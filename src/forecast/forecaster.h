#ifndef RPAS_FORECAST_FORECASTER_H_
#define RPAS_FORECAST_FORECASTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "nn/qcheckpoint.h"
#include "ts/quantile_forecast.h"
#include "ts/time_series.h"

namespace rpas::forecast {

/// Conditioning information for one forecast: the most recent
/// `context` observations and their absolute position in the series (used
/// to derive calendar covariates such as time-of-day).
struct ForecastInput {
  /// w_{t-T+1} .. w_t, oldest first.
  std::vector<double> context;
  /// Absolute index of context[0] within the underlying series.
  size_t start_index = 0;
  /// Sampling interval in minutes.
  double step_minutes = 10.0;

  /// Absolute index of the first forecast step (one past the context).
  size_t forecast_start() const { return start_index + context.size(); }

  /// The `context` values of `series` that end just before index `end`:
  /// values [end - context, end), start_index end - context, and the
  /// series' step. The one rule for cutting a forecast window from a
  /// series. Requires context <= end <= series.size() (checked).
  static ForecastInput Window(const ts::TimeSeries& series, size_t end,
                              size_t context);
};

/// Validates a forecast input where it enters a model: `context` must hold
/// exactly `context_length` finite values. A NaN or infinity is rejected
/// with InvalidArgument naming `model` and the first bad index, since
/// activations such as ReLU can swallow it and return a finite forecast.
Status CheckContext(const char* model, const ForecastInput& input,
                    size_t context_length);

/// CheckContext's finiteness rule alone, for models that set their own
/// length rule (ARIMA, Holt-Winters and SeasonalNaive accept any context
/// long enough for their differencing or seasons).
Status CheckContextFinite(const char* model, const ForecastInput& input);

/// Probabilistic workload forecaster interface (paper §III-B). A forecaster
/// is fitted once on a training series and then queried with context
/// windows; it returns quantile forecasts over its configured horizon.
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Trains the model. Must be called before Predict.
  virtual Status Fit(const ts::TimeSeries& train) = 0;

  /// Quantile forecast for the configured horizon at the configured levels.
  /// A sampling model's Predict draws from, and advances, its own sampling
  /// stream (DeepAR's), so despite `const` it is not safe to call
  /// concurrently on one instance, and each call's draws depend on the
  /// calls before it. Concurrent callers use PredictSeeded, or an instance
  /// each.
  virtual Result<ts::QuantileForecast> Predict(
      const ForecastInput& input) const = 0;

  /// Point forecast; the default takes the median trajectory of Predict().
  virtual Result<std::vector<double>> PredictPoint(
      const ForecastInput& input) const;

  // --- Serving interface (src/serve) -------------------------------------

  /// Seed-deterministic prediction: like Predict(), but any sampling noise
  /// is drawn from a generator derived from `seed` alone — never from
  /// internal mutable state — so the result is a pure function of
  /// (fitted weights, input, seed). Must be safe to call concurrently on
  /// one fitted model; the default forwards to Predict(), which satisfies
  /// both requirements for deterministic forecasters. Sampling-based models
  /// (DeepAR) override it.
  virtual Result<ts::QuantileForecast> PredictSeeded(
      const ForecastInput& input, uint64_t seed) const;

  /// Batched inference: serves `inputs[i]` with sampling seed `seeds[i]`
  /// and returns the forecasts in the same order. Contract: element i is
  /// bit-identical to PredictSeeded(inputs[i], seeds[i]) regardless of
  /// batch composition, batch order, and thread count. The default loops
  /// over PredictSeeded; models that can stack requests into one forward
  /// pass override it and return true from SupportsBatchedInference().
  virtual Result<std::vector<ts::QuantileForecast>> PredictBatch(
      const std::vector<ForecastInput>& inputs,
      const std::vector<uint64_t>& seeds) const;

  /// True when PredictBatch() runs a genuinely batched (row-stacked)
  /// forward pass rather than the default per-request loop.
  virtual bool SupportsBatchedInference() const { return false; }

  /// Common checkpoint interface (serve::ModelRegistry). Persists the
  /// fitted state as an fp64 rpasq.v1 checkpoint (nn/qcheckpoint.h) so an
  /// identically configured instance can serve without re-training; the
  /// file is replaced by atomic rename. Defaults return Unimplemented;
  /// models with a trained state override and return true from
  /// SupportsCheckpoint().
  virtual Status SaveCheckpoint(const std::string& path) const;
  /// Restores state written by SaveCheckpoint() on an identically
  /// configured model; the restored model is ready to predict and owns its
  /// weights, so it can still be trained.
  virtual Status LoadCheckpoint(const std::string& path);
  virtual bool SupportsCheckpoint() const { return false; }

  /// Restores serving state from a validated rpasq.v1 checkpoint
  /// (nn/qcheckpoint.h). Large weight matrices stay in the mapped file and
  /// are dequantized on the fly inside the GEMM kernels; the model retains
  /// `checkpoint` so the mapping outlives every view. The restored model
  /// serves predictions but cannot be trained further. Defaults to
  /// Unimplemented; models override and return true from
  /// SupportsQuantizedCheckpoint().
  virtual Status LoadQuantizedCheckpoint(
      std::shared_ptr<const nn::QuantizedCheckpoint> checkpoint);
  virtual bool SupportsQuantizedCheckpoint() const { return false; }

  // --- Streaming interface (src/stream) -----------------------------------

  /// What an IncrementalUpdate actually did, for refresh accounting.
  struct IncrementalUpdateReport {
    /// New points consumed.
    size_t points = 0;
    /// Gradient steps run (0 for recursive-state models).
    int gradient_steps = 0;
  };

  /// Folds the newest `new_points` observations of `history` into the
  /// fitted state in O(new_points) work instead of refitting on the full
  /// window: recursive models (seasonal-naive, ARIMA) push each point
  /// through their residual accumulators; NN models (MLP, DeepAR) run a
  /// bounded number of warm-start gradient steps on the new-points suffix.
  /// `history` must be the same stream the model was fitted on, extended —
  /// the last `new_points` values are the unseen ones. Requires a fitted
  /// model; models restored from quantized checkpoints (frozen weights)
  /// return FailedPrecondition. Default: Unimplemented; models override and
  /// return true from SupportsIncrementalUpdate().
  virtual Result<IncrementalUpdateReport> IncrementalUpdate(
      const ts::TimeSeries& history, size_t new_points);

  /// Rebuilds streaming state from scratch off the full `history` (used
  /// after the ingest ring dropped points, so per-point replay is
  /// impossible). For recursive models this replays the accumulators; NN
  /// models keep their weights (the next IncrementalUpdate resumes
  /// fine-tuning). Must leave the model at the state a fresh
  /// IncrementalUpdate stream over `history` would have produced. Default:
  /// no-op success, correct for stateless-between-calls models.
  virtual Status ResyncState(const ts::TimeSeries& history);

  /// True when IncrementalUpdate() is implemented.
  virtual bool SupportsIncrementalUpdate() const { return false; }

  /// Forecast horizon H (steps).
  virtual size_t Horizon() const = 0;
  /// Expected context length T (steps).
  virtual size_t ContextLength() const = 0;
  /// Quantile levels produced by Predict().
  virtual const std::vector<double>& Levels() const = 0;

  virtual std::string Name() const = 0;
};

/// The paper's default quantile grid A = {0.1, ..., 0.9} (§IV-B).
std::vector<double> DefaultQuantileLevels();

/// The grid used for robust auto-scaling experiments
/// A = {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99} (§IV-C).
std::vector<double> ScalingQuantileLevels();

/// Rolling evaluation helper: slides a window over `test` (starting with
/// `context_length` observations of history, stepping by `stride`), calls
/// the forecaster, and returns aligned (forecast, actual) pairs.
/// `history` supplies observations preceding `test` so the first windows
/// have full context; pass the training series tail.
struct RollingForecasts {
  std::vector<ts::QuantileForecast> forecasts;
  std::vector<std::vector<double>> actuals;
  /// Absolute start index (within history+test) of each forecast's first
  /// predicted step.
  std::vector<size_t> forecast_starts;
};
Result<RollingForecasts> RollForecasts(const Forecaster& model,
                                       const ts::TimeSeries& history,
                                       const ts::TimeSeries& test,
                                       size_t stride);

}  // namespace rpas::forecast

#endif  // RPAS_FORECAST_FORECASTER_H_
