#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

// Benchmark-owned instrumentation for the traced run. Nothing here touches
// the program: the decorators below wrap the two public extension points
// the drivers call through (forecast::Forecaster and core::QuantileAllocator)
// and forward every virtual unchanged, so a traced run computes exactly what
// the untimed run computes. Each forwarded call that does work records one
// span into a SpanLog.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/strategies.h"
#include "forecast/forecaster.h"

namespace perfbench {

/// One timed call into a layer.
struct SpanRecord {
  const char* name = "";  ///< static string, e.g. "forecast.batch"
  uint64_t start_ns = 0;  ///< steady clock, relative to the log's epoch
  uint64_t end_ns = 0;
  uint32_t thread = 0;    ///< small per-thread index, first caller = 0
  uint32_t pass = 0;      ///< driver call the span belongs to
  int64_t rows = 0;       ///< requests in a batch, gradient steps, ...
};

/// Thread-safe in-memory span buffer plus the counters a span cannot carry.
/// Spans are written out only after the run (WriteJsonl).
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  uint64_t NowNs() const;
  void Record(const char* name, uint64_t start_ns, int64_t rows);
  void SetPass(uint32_t pass) { pass_.store(pass, std::memory_order_relaxed); }

  void CountError() { errors_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t errors() const { return errors_.load(std::memory_order_relaxed); }

  /// Keeps a bounded sample of served forecasts (the allocation replay of
  /// the fleets works on these).
  void CaptureForecast(const rpas::ts::QuantileForecast& forecast);
  std::vector<rpas::ts::QuantileForecast> captured() const;

  std::vector<SpanRecord> spans() const;
  /// Writes `header` as the first line, then one JSON object per span.
  bool WriteJsonl(const std::string& path, const std::string& header) const;

  static constexpr size_t kMaxCaptured = 4096;

 private:
  const uint64_t epoch_ns_;
  std::atomic<uint32_t> pass_{0};
  std::atomic<uint64_t> errors_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;            // guarded by mu_
  std::vector<rpas::ts::QuantileForecast> captured_;  // guarded by mu_
};

/// Transparent Forecaster decorator. Records "forecast.fit",
/// "forecast.predict" (Predict, PredictSeeded), "forecast.batch",
/// "forecast.update" (IncrementalUpdate, ResyncState) and "forecast.load"
/// (LoadCheckpoint, LoadQuantizedCheckpoint) spans; every other virtual is
/// forwarded untimed.
class TracedForecaster final : public rpas::forecast::Forecaster {
 public:
  /// `log` must outlive the decorator.
  TracedForecaster(std::unique_ptr<rpas::forecast::Forecaster> inner,
                   SpanLog* log, bool capture_batches = false);

  rpas::Status Fit(const rpas::ts::TimeSeries& train) override;
  rpas::Result<rpas::ts::QuantileForecast> Predict(
      const rpas::forecast::ForecastInput& input) const override;
  rpas::Result<std::vector<double>> PredictPoint(
      const rpas::forecast::ForecastInput& input) const override;
  rpas::Result<rpas::ts::QuantileForecast> PredictSeeded(
      const rpas::forecast::ForecastInput& input,
      uint64_t seed) const override;
  rpas::Result<std::vector<rpas::ts::QuantileForecast>> PredictBatch(
      const std::vector<rpas::forecast::ForecastInput>& inputs,
      const std::vector<uint64_t>& seeds) const override;
  bool SupportsBatchedInference() const override;
  rpas::Status SaveCheckpoint(const std::string& path) const override;
  rpas::Status LoadCheckpoint(const std::string& path) override;
  bool SupportsCheckpoint() const override;
  rpas::Status LoadQuantizedCheckpoint(
      std::shared_ptr<const rpas::nn::QuantizedCheckpoint> checkpoint)
      override;
  bool SupportsQuantizedCheckpoint() const override;
  rpas::Result<IncrementalUpdateReport> IncrementalUpdate(
      const rpas::ts::TimeSeries& history, size_t new_points) override;
  rpas::Status ResyncState(const rpas::ts::TimeSeries& history) override;
  bool SupportsIncrementalUpdate() const override;
  size_t Horizon() const override;
  size_t ContextLength() const override;
  const std::vector<double>& Levels() const override;
  std::string Name() const override;

 private:
  std::unique_ptr<rpas::forecast::Forecaster> inner_;
  SpanLog* log_;  // not owned
  bool capture_batches_;
};

/// Transparent QuantileAllocator decorator recording "core.allocate".
class TracedAllocator final : public rpas::core::QuantileAllocator {
 public:
  TracedAllocator(std::unique_ptr<rpas::core::QuantileAllocator> inner,
                  SpanLog* log);

  rpas::Result<std::vector<int>> Allocate(
      const rpas::ts::QuantileForecast& forecast,
      const rpas::core::ScalingConfig& config) const override;
  std::string Name() const override;

 private:
  std::unique_ptr<rpas::core::QuantileAllocator> inner_;
  SpanLog* log_;  // not owned
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
