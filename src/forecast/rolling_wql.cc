#include "forecast/rolling_wql.h"

namespace rpas::forecast {

RollingWql::RollingWql(size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) capacity_ = 1;
}

void RollingWql::Observe(double wql) {
  window_.push_back(wql);
  if (window_.size() > capacity_) window_.erase(window_.begin());
  ++total_observed_;
}

void RollingWql::Reset() { window_.clear(); }

double RollingWql::Mean() const {
  if (window_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : window_) sum += v;
  return sum / static_cast<double>(window_.size());
}

double RollingWql::Latest() const {
  return window_.empty() ? 0.0 : window_.back();
}

}  // namespace rpas::forecast
