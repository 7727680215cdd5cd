#ifndef RPAS_FORECAST_BACKTEST_H_
#define RPAS_FORECAST_BACKTEST_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "forecast/forecaster.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ts/metrics.h"

namespace rpas::forecast {

/// Rolling-origin backtesting configuration.
struct BacktestOptions {
  /// Number of expanding-origin folds. Fold k trains on the series up to
  /// origin_k and evaluates on the following `fold_steps` observations.
  size_t folds = 3;
  /// Evaluation steps per fold.
  size_t fold_steps = 432;
  /// Stride between forecasts inside a fold; 0 = the model's horizon.
  size_t stride = 0;
  /// Quantile levels to score; empty = the model's own levels.
  std::vector<double> levels;
  /// Base seed handed to the seeded factory (per fold, after SplitMix
  /// derivation). Ignored by the unseeded factory overload.
  uint64_t base_seed = 2024;
  /// Metrics sink for fold counters and per-fold wall-clock timing; null
  /// routes to obs::MetricsRegistry::Global().
  obs::MetricsRegistry* metrics = nullptr;
  /// Trace sink for the "backtest" / "backtest.fold" spans; null routes to
  /// obs::TraceBuffer::Global().
  obs::TraceBuffer* trace = nullptr;
};

/// Mean and standard deviation of a metric across folds.
struct MetricSummary {
  double mean = 0.0;
  double stddev = 0.0;
};

/// Backtest outcome: per-fold reports plus cross-fold summaries.
struct BacktestResult {
  std::vector<ts::AccuracyReport> fold_reports;
  MetricSummary mean_wql;
  MetricSummary mse;
  MetricSummary mae;
  std::map<double, MetricSummary> coverage;  // per scored level
};

/// Builds the fresh model for one fold. `seed` is derived deterministically
/// from BacktestOptions::base_seed and `fold` (SplitMix-style), so a
/// stochastic model seeded with it trains identically whether the fold runs
/// serially or on a pool worker.
using SeededForecasterFactory =
    std::function<std::unique_ptr<Forecaster>(size_t fold, uint64_t seed)>;

/// Rolling-origin (expanding-window) backtest: for each fold a *fresh*
/// model is built by `factory`, fitted on all data before the fold's
/// origin, and scored on the fold's evaluation window. Reports cross-fold
/// mean +/- stddev so model comparisons account for fit variance — the
/// multi-run averaging of the paper's Table I, systematized.
/// The independent folds run concurrently on the RPAS thread pool
/// (RPAS_NUM_THREADS workers; in fold order on the calling thread at one).
/// The result is bit-identical at any thread count: every fold derives its
/// model seed from `base_seed` and its fold index via DeriveSeed, and
/// aggregation always runs in fold order. `factory` may be called from
/// several threads at once.
Result<BacktestResult> Backtest(const SeededForecasterFactory& factory,
                                const ts::TimeSeries& series,
                                const BacktestOptions& options);

/// Convenience overload for deterministic models (or models carrying their
/// own fixed seed): the factory ignores the fold index and derived seed.
Result<BacktestResult> Backtest(
    const std::function<std::unique_ptr<Forecaster>()>& factory,
    const ts::TimeSeries& series, const BacktestOptions& options);

}  // namespace rpas::forecast

#endif  // RPAS_FORECAST_BACKTEST_H_
