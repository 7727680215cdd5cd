#ifndef RPAS_OBS_METRICS_H_
#define RPAS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rpas::obs {

namespace internal {

/// Stripes per counter and histogram (a power of two).
/// Threads hash onto stripes by a stable per-thread slot id, so with up to
/// kMetricStripes concurrent threads every writer owns a private cache
/// line; beyond that, slots are shared but remain correct (atomics).
inline constexpr size_t kMetricStripes = 16;

/// Stable per-thread stripe slot in [0, kMetricStripes). Assigned on first
/// use from a process-wide round-robin counter, so the first
/// kMetricStripes threads never collide.
size_t ThisThreadStripe();

/// One cache line per stripe so concurrent writers on different stripes
/// never share a line.
struct alignas(64) CounterStripe {
  std::atomic<int64_t> value{0};
};

/// One cache line of histogram bucket counts. Allocated as whole lines of
/// this type, each stripe's block starts on its own cache line, which an
/// array of `std::atomic<uint64_t>` (16-byte aligned by new) does not
/// guarantee.
struct alignas(64) BucketLine {
  static constexpr size_t kCounts = 8;
  std::atomic<uint64_t> counts[kCounts] = {};
};
static_assert(sizeof(BucketLine) == 64 && alignof(BucketLine) == 64);

/// Per-stripe scalar state of a histogram (bucket counts are laid out
/// separately, cache-line padded per stripe).
struct alignas(64) HistogramStripe {
  std::atomic<uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min;
  std::atomic<double> max;
  std::atomic<uint64_t> nan_count{0};
};

}  // namespace internal

/// Metric instruments handed out by MetricsRegistry. Every mutation first
/// checks the owning registry's enabled flag (one relaxed atomic load), so
/// instrumented hot paths cost a load + branch when metrics are off and a
/// handful of relaxed atomic ops when they are on. Handles are stable for
/// the registry's lifetime and safe to cache and to use concurrently.
///
/// Counters and histograms are striped: a write lands on the calling
/// thread's stripe (its own cache line while at most kMetricStripes threads
/// write), and reads merge the stripes. Instruments mutated inside parallel
/// phases therefore never contend on one line; a single writer pays one
/// thread-local slot lookup on top of the relaxed atomic op.
///
/// Determinism: a metric is *deterministic* when its exported value is a
/// pure function of the workload's seeds — independent of thread count,
/// scheduling, and wall-clock. Counters and histograms over deterministic
/// quantities (losses, fault counts) qualify; anything timing- or
/// scheduling-derived (fold milliseconds, pool queue depths) must be
/// registered with `deterministic = false` so deterministic exports skip
/// it (see export.h).
class Counter {
 public:
  /// Adds `n` to the calling thread's stripe (no-op while the registry is
  /// disabled).
  void Increment(int64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) {
      return;
    }
    stripes_[internal::ThisThreadStripe()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  /// Sum over the stripes (exact — integer addition commutes).
  int64_t value() const {
    int64_t total = 0;
    for (size_t i = 0; i < internal::kMetricStripes; ++i) {
      total += stripes_[i].value.load(std::memory_order_relaxed);
    }
    return total;
  }
  bool deterministic() const { return deterministic_; }

 private:
  friend class MetricsRegistry;
  Counter(const std::atomic<bool>* enabled, bool deterministic)
      : stripes_(new internal::CounterStripe[internal::kMetricStripes]),
        enabled_(enabled),
        deterministic_(deterministic) {}

  const std::unique_ptr<internal::CounterStripe[]> stripes_;
  const std::atomic<bool>* enabled_;
  const bool deterministic_;
};

/// Last-value instrument. Concurrent Set calls race benignly (last writer
/// wins), which makes a gauge's final value scheduling-dependent — gauges
/// therefore default to non-deterministic.
class Gauge {
 public:
  void Set(double value) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.store(value, std::memory_order_relaxed);
    }
  }
  /// Monotonic maximum (CAS loop; order-independent).
  void Max(double value);
  double value() const { return value_.load(std::memory_order_relaxed); }
  bool deterministic() const { return deterministic_; }

 private:
  friend class MetricsRegistry;
  Gauge(const std::atomic<bool>* enabled, bool deterministic)
      : enabled_(enabled), deterministic_(deterministic) {}

  std::atomic<double> value_{0.0};
  const std::atomic<bool>* enabled_;
  const bool deterministic_;
};

/// Fixed-bucket histogram with quantile readout. Bucket upper bounds are
/// set at registration and never change; Observe() adds one to a bucket
/// and folds count, sum, min and max on the calling thread's stripe, and
/// reads merge the stripes. Bucket counts, total count, min and max merge
/// exactly (integer sums and order-independent folds), so they are
/// identical at any thread count; the floating-point `sum` is not
/// (observation order changes rounding), so deterministic exports include
/// everything except `sum`.
class Histogram {
 public:
  /// Files `value` in its bucket. A NaN is only counted (nan_count()): it
  /// has no bucket and would poison sum, min and max. ±Inf keep their
  /// buckets.
  void Observe(double value);

  /// Non-NaN observations; buckets, sum, min and max cover exactly these.
  uint64_t count() const;
  /// NaN observations, kept out of every other statistic.
  uint64_t nan_count() const;
  double sum() const;
  double min() const;  ///< +inf when empty
  double max() const;  ///< -inf when empty

  /// Quantile estimate by linear interpolation inside the bucket where the
  /// cumulative count crosses `q * count`, clamped to the observed
  /// [min, max]. Pure function of the bucket counts and min/max, so it is
  /// deterministic whenever the observations are. Returns 0 when empty.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i` (bucket i covers (bounds[i-1], bounds[i]];
  /// bucket bounds.size() is the overflow bucket), summed over stripes.
  uint64_t BucketCount(size_t i) const;
  size_t NumBuckets() const { return bounds_.size() + 1; }
  bool deterministic() const { return deterministic_; }

 private:
  friend class MetricsRegistry;
  Histogram(const std::atomic<bool>* enabled, std::vector<double> bounds,
            bool deterministic);

  const std::vector<double> bounds_;  // sorted upper bounds
  // Bucket counts are one flat array of kMetricStripes blocks of
  // `lines_per_stripe_` cache lines each, so stripes never share a line.
  std::atomic<uint64_t>& BucketAt(size_t stripe, size_t bucket) const {
    return counts_[stripe * lines_per_stripe_ +
                   bucket / internal::BucketLine::kCounts]
        .counts[bucket % internal::BucketLine::kCounts];
  }
  const size_t lines_per_stripe_;
  const std::unique_ptr<internal::BucketLine[]> counts_;
  const std::unique_ptr<internal::HistogramStripe[]> stripes_;
  const std::atomic<bool>* enabled_;
  const bool deterministic_;
};

/// Default histogram bounds: log-spaced {1, 2.5, 5} x 10^k over
/// [1e-6, 1e6] — wide enough for losses, gradient norms, millisecond
/// timings and node counts alike.
std::vector<double> DefaultHistogramBounds();

/// Thread-safe registry of named metrics. Lookup (Get*) takes a mutex and
/// is meant to run once per instrumented object (cache the handle);
/// instrument mutations are lock-free. A disabled registry still hands out
/// handles — their mutations are no-ops — so instrumentation sites never
/// branch on configuration themselves.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Finds or creates the named instrument. The first registration fixes
  /// `deterministic` (and, for histograms, the bucket bounds); later calls
  /// return the existing instrument unchanged.
  Counter* GetCounter(const std::string& name, bool deterministic = true);
  Gauge* GetGauge(const std::string& name, bool deterministic = false);
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {},
                          bool deterministic = true);

  /// Name-sorted views for exporters (names are copied; instrument
  /// pointers stay valid and live).
  std::vector<std::pair<std::string, const Counter*>> Counters() const;
  std::vector<std::pair<std::string, const Gauge*>> Gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> Histograms() const;

  /// Process-wide registry used when no explicit registry is injected.
  /// Starts enabled iff the RPAS_METRICS environment variable is set to a
  /// truthy value (anything but "", "0", "false", "off"); SetEnabled()
  /// overrides at runtime (benches with --metrics-out do this).
  static MetricsRegistry& Global();

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Resolves the effective registry for an instrumentation site: the
/// injected one if non-null, else the global registry.
inline MetricsRegistry* ResolveRegistry(MetricsRegistry* injected) {
  return injected != nullptr ? injected : &MetricsRegistry::Global();
}

/// Adds each (counter name, value) row to its deterministic counter: the
/// table a driver mirrors its finished result through, so the registry
/// agrees with the result fields by construction.
void IncrementCounters(
    MetricsRegistry* registry,
    std::initializer_list<std::pair<const char*, uint64_t>> rows);

/// Snapshots the shared ThreadPool's scheduling statistics (tasks
/// executed, queue depths, worker count) into gauges on `registry`
/// (global when null). Scheduling-dependent, so every gauge is registered
/// non-deterministic.
void RecordPoolStats(MetricsRegistry* registry = nullptr);

}  // namespace rpas::obs

#endif  // RPAS_OBS_METRICS_H_
