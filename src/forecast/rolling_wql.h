#ifndef RPAS_FORECAST_ROLLING_WQL_H_
#define RPAS_FORECAST_ROLLING_WQL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rpas::forecast {

/// Fixed-capacity rolling window over realized forecast-quality samples
/// (prefix-mean wQL of expiring plans, cf. ts::PrefixMeanWql). One instance
/// tracks one model's recent accuracy; the selection layer and the streaming
/// drift guard both consume it. Deterministic: Mean() sums the window
/// front-to-back, so the result is a pure function of the observed sequence
/// regardless of thread count.
class RollingWql {
 public:
  explicit RollingWql(size_t capacity = 8);

  /// Records one wQL sample, evicting the oldest beyond capacity.
  void Observe(double wql);
  void Reset();

  /// Mean of the retained samples (0.0 when empty).
  double Mean() const;
  /// Most recent sample (0.0 when empty).
  double Latest() const;
  size_t Count() const { return window_.size(); }
  bool Full() const { return window_.size() >= capacity_; }
  size_t capacity() const { return capacity_; }
  /// Total samples observed over the instance's lifetime.
  uint64_t TotalObserved() const { return total_observed_; }

 private:
  size_t capacity_;
  std::vector<double> window_;  ///< oldest first; a few samples
  uint64_t total_observed_ = 0;
};

}  // namespace rpas::forecast

#endif  // RPAS_FORECAST_ROLLING_WQL_H_
