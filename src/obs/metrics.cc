#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/parallel.h"

namespace rpas::obs {

namespace {

/// Order-independent atomic accumulation helpers (CAS loops).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

bool EnvTruthy(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) {
    return false;
  }
  return std::strcmp(value, "") != 0 && std::strcmp(value, "0") != 0 &&
         std::strcmp(value, "false") != 0 && std::strcmp(value, "off") != 0;
}

}  // namespace

namespace internal {

size_t ThisThreadStripe() {
  static std::atomic<size_t> next_slot{0};
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kMetricStripes;
  return slot;
}

}  // namespace internal

void Gauge::Max(double value) {
  if (enabled_->load(std::memory_order_relaxed)) {
    AtomicMax(&value_, value);
  }
}

Histogram::Histogram(const std::atomic<bool>* enabled,
                     std::vector<double> bounds, bool deterministic)
    : bounds_(std::move(bounds)),
      lines_per_stripe_((bounds_.size() + internal::BucketLine::kCounts) /
                        internal::BucketLine::kCounts),
      counts_(new internal::BucketLine[lines_per_stripe_ *
                                       internal::kMetricStripes]),
      stripes_(new internal::HistogramStripe[internal::kMetricStripes]),
      enabled_(enabled),
      deterministic_(deterministic) {
  for (size_t i = 0; i < internal::kMetricStripes; ++i) {
    stripes_[i].min.store(std::numeric_limits<double>::infinity(),
                          std::memory_order_relaxed);
    stripes_[i].max.store(-std::numeric_limits<double>::infinity(),
                          std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  if (!enabled_->load(std::memory_order_relaxed)) {
    return;
  }
  const size_t slot = internal::ThisThreadStripe();
  if (std::isnan(value)) {
    stripes_[slot].nan_count.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const size_t bucket = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  BucketAt(slot, bucket).fetch_add(1, std::memory_order_relaxed);
  internal::HistogramStripe& stripe = stripes_[slot];
  stripe.count.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&stripe.sum, value);
  AtomicMin(&stripe.min, value);
  AtomicMax(&stripe.max, value);
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (size_t i = 0; i < internal::kMetricStripes; ++i) {
    total += stripes_[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::nan_count() const {
  uint64_t total = 0;
  for (size_t i = 0; i < internal::kMetricStripes; ++i) {
    total += stripes_[i].nan_count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const {
  // Fixed stripe order: deterministic given the per-stripe sums (which are
  // themselves scheduling-dependent — `sum` stays excluded from
  // deterministic exports either way).
  double total = 0.0;
  for (size_t i = 0; i < internal::kMetricStripes; ++i) {
    total += stripes_[i].sum.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::BucketCount(size_t i) const {
  uint64_t total = 0;
  for (size_t s = 0; s < internal::kMetricStripes; ++s) {
    total += BucketAt(s, i).load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::min() const {
  double result = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < internal::kMetricStripes; ++i) {
    result = std::min(result, stripes_[i].min.load(std::memory_order_relaxed));
  }
  return result;
}

double Histogram::max() const {
  double result = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < internal::kMetricStripes; ++i) {
    result = std::max(result, stripes_[i].max.load(std::memory_order_relaxed));
  }
  return result;
}

double Histogram::Quantile(double q) const {
  const uint64_t total = count();
  if (total == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < NumBuckets(); ++i) {
    const uint64_t in_bucket = BucketCount(i);
    if (in_bucket == 0) {
      continue;
    }
    const double reached = static_cast<double>(cumulative + in_bucket);
    if (reached >= target) {
      // Interpolate inside this bucket. The overflow bucket and the first
      // populated bucket fall back to the observed extrema.
      const double lower =
          i == 0 ? min() : std::max(bounds_[i - 1], min());
      const double upper = i < bounds_.size() ? std::min(bounds_[i], max())
                                              : max();
      const double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      const double value = lower + (upper - lower) * std::clamp(fraction,
                                                                0.0, 1.0);
      return std::clamp(value, min(), max());
    }
    cumulative += in_bucket;
  }
  return max();
}

std::vector<double> DefaultHistogramBounds() {
  std::vector<double> bounds;
  for (int exponent = -6; exponent <= 6; ++exponent) {
    const double decade = std::pow(10.0, exponent);
    for (double factor : {1.0, 2.5, 5.0}) {
      bounds.push_back(factor * decade);
    }
  }
  return bounds;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     bool deterministic) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, std::unique_ptr<Counter>(
                                new Counter(&enabled_, deterministic)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 bool deterministic) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(name, std::unique_ptr<Gauge>(
                                new Gauge(&enabled_, deterministic)))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         bool deterministic) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) {
      bounds = DefaultHistogramBounds();
    }
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(new Histogram(
                                &enabled_, std::move(bounds), deterministic)))
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, const Counter*>>
MetricsRegistry::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter.get());
  }
  return out;
}

std::vector<std::pair<std::string, const Gauge*>> MetricsRegistry::Gauges()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Gauge*>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge.get());
  }
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::Histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name, histogram.get());
  }
  return out;
}

void IncrementCounters(
    MetricsRegistry* registry,
    std::initializer_list<std::pair<const char*, uint64_t>> rows) {
  for (const auto& [name, value] : rows) {
    registry->GetCounter(name)->Increment(static_cast<int64_t>(value));
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked so instrument handles cached in other static-lifetime objects
  // stay valid through shutdown.
  static MetricsRegistry* registry =
      new MetricsRegistry(EnvTruthy("RPAS_METRICS"));
  return *registry;
}

void RecordPoolStats(MetricsRegistry* registry) {
  MetricsRegistry* m = ResolveRegistry(registry);
  const ThreadPool::Stats stats = ThreadPool::Shared().GetStats();
  m->GetGauge("pool.tasks_submitted")
      ->Set(static_cast<double>(stats.tasks_submitted));
  m->GetGauge("pool.tasks_executed")
      ->Set(static_cast<double>(stats.tasks_executed));
  m->GetGauge("pool.queue_depth")
      ->Set(static_cast<double>(stats.queue_depth));
  m->GetGauge("pool.max_queue_depth")
      ->Set(static_cast<double>(stats.max_queue_depth));
  m->GetGauge("pool.threads")->Set(static_cast<double>(stats.threads));
}

}  // namespace rpas::obs
