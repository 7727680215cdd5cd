#include "dist/empirical.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace rpas::dist {

double SortedQuantile(const double* sorted, size_t n, double p) {
  RPAS_CHECK(p > 0.0 && p < 1.0) << "Quantile requires p in (0,1)";
  RPAS_CHECK(n > 0) << "Quantile needs at least one sample";
  if (n == 1) {
    return sorted[0];
  }
  const double h = (static_cast<double>(n) - 1.0) * p;
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Empirical::Empirical(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  RPAS_CHECK(!sorted_.empty()) << "Empirical needs at least one sample";
  std::sort(sorted_.begin(), sorted_.end());
  double sum = 0.0;
  for (double v : sorted_) {
    sum += v;
  }
  mean_ = sum / static_cast<double>(sorted_.size());
  double ss = 0.0;
  for (double v : sorted_) {
    ss += (v - mean_) * (v - mean_);
  }
  variance_ = sorted_.size() > 1
                  ? ss / static_cast<double>(sorted_.size() - 1)
                  : 0.0;
}

double Empirical::Mean() const { return mean_; }

double Empirical::Variance() const { return variance_; }

double Empirical::LogPdf(double x) const {
  const double sd = std::max(std::sqrt(variance_), 1e-12);
  const double z = (x - mean_) / sd;
  return -0.5 * z * z - std::log(sd) - 0.5 * std::log(2.0 * M_PI);
}

double Empirical::Cdf(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Empirical::Quantile(double p) const {
  return SortedQuantile(sorted_.data(), sorted_.size(), p);
}

double Empirical::Sample(Rng* rng) const {
  return sorted_[rng->UniformInt(sorted_.size())];
}

}  // namespace rpas::dist
