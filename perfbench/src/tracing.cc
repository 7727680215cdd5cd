#include "tracing.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

using rpas::Result;
using rpas::Status;
namespace forecast = rpas::forecast;
namespace ts = rpas::ts;

uint64_t SteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// Records one span around a forwarded call and counts a failed outcome.
template <typename Fn>
auto Timed(SpanLog* log, const char* name, Fn&& fn) {
  const uint64_t start = log->NowNs();
  auto out = fn();
  log->Record(name, start, 0);
  if (!out.ok()) {
    log->CountError();
  }
  return out;
}

}  // namespace

SpanLog::SpanLog() : epoch_ns_(SteadyNs()) { spans_.reserve(1 << 14); }

uint64_t SpanLog::NowNs() const { return SteadyNs() - epoch_ns_; }

void SpanLog::Record(const char* name, uint64_t start_ns, int64_t rows) {
  SpanRecord span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = NowNs();
  span.thread = ThreadIndex();
  span.pass = pass_.load(std::memory_order_relaxed);
  span.rows = rows;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void SpanLog::CaptureForecast(const ts::QuantileForecast& forecast) {
  std::lock_guard<std::mutex> lock(mu_);
  if (captured_.size() < kMaxCaptured) {
    captured_.push_back(forecast);
  }
}

std::vector<ts::QuantileForecast> SpanLog::captured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return captured_;
}

std::vector<SpanRecord> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteJsonl(const std::string& path,
                         const std::string& header) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "%s\n", header.c_str());
  for (const SpanRecord& s : spans()) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"thread\":%u,\"pass\":%u,\"rows\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.thread, s.pass,
                 static_cast<long long>(s.rows));
  }
  return std::fclose(out) == 0;
}

TracedForecaster::TracedForecaster(
    std::unique_ptr<forecast::Forecaster> inner, SpanLog* log,
    bool capture_batches)
    : inner_(std::move(inner)), log_(log), capture_batches_(capture_batches) {}

Status TracedForecaster::Fit(const ts::TimeSeries& train) {
  return Timed(log_, "forecast.fit", [&] { return inner_->Fit(train); });
}

Result<ts::QuantileForecast> TracedForecaster::Predict(
    const forecast::ForecastInput& input) const {
  return Timed(log_, "forecast.predict",
               [&] { return inner_->Predict(input); });
}

Result<std::vector<double>> TracedForecaster::PredictPoint(
    const forecast::ForecastInput& input) const {
  return inner_->PredictPoint(input);
}

Result<ts::QuantileForecast> TracedForecaster::PredictSeeded(
    const forecast::ForecastInput& input, uint64_t seed) const {
  return Timed(log_, "forecast.predict",
               [&] { return inner_->PredictSeeded(input, seed); });
}

Result<std::vector<ts::QuantileForecast>> TracedForecaster::PredictBatch(
    const std::vector<forecast::ForecastInput>& inputs,
    const std::vector<uint64_t>& seeds) const {
  const uint64_t start = log_->NowNs();
  auto out = inner_->PredictBatch(inputs, seeds);
  // DeepAR rows are tagged negative so the report can split the row mix
  // without a second span name.
  const int64_t rows = static_cast<int64_t>(inputs.size());
  log_->Record("forecast.batch", start,
               inner_->Name() == "DeepAR" ? -rows : rows);
  if (!out.ok()) {
    log_->CountError();
  } else if (capture_batches_) {
    for (const ts::QuantileForecast& fc : *out) {
      log_->CaptureForecast(fc);
    }
  }
  return out;
}

bool TracedForecaster::SupportsBatchedInference() const {
  return inner_->SupportsBatchedInference();
}

Status TracedForecaster::SaveCheckpoint(const std::string& path) const {
  return inner_->SaveCheckpoint(path);
}

Status TracedForecaster::LoadCheckpoint(const std::string& path) {
  return Timed(log_, "forecast.load",
               [&] { return inner_->LoadCheckpoint(path); });
}

bool TracedForecaster::SupportsCheckpoint() const {
  return inner_->SupportsCheckpoint();
}

Status TracedForecaster::LoadQuantizedCheckpoint(
    std::shared_ptr<const rpas::nn::QuantizedCheckpoint> checkpoint) {
  return Timed(log_, "forecast.load", [&] {
    return inner_->LoadQuantizedCheckpoint(std::move(checkpoint));
  });
}

bool TracedForecaster::SupportsQuantizedCheckpoint() const {
  return inner_->SupportsQuantizedCheckpoint();
}

Result<forecast::Forecaster::IncrementalUpdateReport>
TracedForecaster::IncrementalUpdate(const ts::TimeSeries& history,
                                    size_t new_points) {
  const uint64_t start = log_->NowNs();
  auto out = inner_->IncrementalUpdate(history, new_points);
  log_->Record("forecast.update", start,
               out.ok() ? out->gradient_steps : 0);
  if (!out.ok()) {
    log_->CountError();
  }
  return out;
}

Status TracedForecaster::ResyncState(const ts::TimeSeries& history) {
  return Timed(log_, "forecast.update",
               [&] { return inner_->ResyncState(history); });
}

bool TracedForecaster::SupportsIncrementalUpdate() const {
  return inner_->SupportsIncrementalUpdate();
}

size_t TracedForecaster::Horizon() const { return inner_->Horizon(); }

size_t TracedForecaster::ContextLength() const {
  return inner_->ContextLength();
}

const std::vector<double>& TracedForecaster::Levels() const {
  return inner_->Levels();
}

std::string TracedForecaster::Name() const { return inner_->Name(); }

TracedAllocator::TracedAllocator(
    std::unique_ptr<rpas::core::QuantileAllocator> inner, SpanLog* log)
    : inner_(std::move(inner)), log_(log) {}

Result<std::vector<int>> TracedAllocator::Allocate(
    const ts::QuantileForecast& forecast,
    const rpas::core::ScalingConfig& config) const {
  return Timed(log_, "core.allocate",
               [&] { return inner_->Allocate(forecast, config); });
}

std::string TracedAllocator::Name() const { return inner_->Name(); }

}  // namespace perfbench
