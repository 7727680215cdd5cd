#ifndef RPAS_DIST_EMPIRICAL_H_
#define RPAS_DIST_EMPIRICAL_H_

#include <cstddef>
#include <vector>

#include "dist/distribution.h"

namespace rpas::dist {

/// Linear-interpolation sample quantile (type-7 / the default in R and
/// NumPy) of the ascending-sorted, non-empty `sorted[0, n)`; p in (0, 1).
/// The one quantile implementation behind Empirical::Quantile, exposed for
/// callers that sort into a reused buffer.
double SortedQuantile(const double* sorted, size_t n, double p);

/// Empirical distribution over a finite sample. DeepAR's multi-step quantile
/// forecasts are obtained by ancestral sampling of whole trajectories and
/// taking per-step empirical quantiles (paper §III-B: "generate possible
/// forecasts at a desired quantile level, using sampling methods").
class Empirical final : public Distribution {
 public:
  /// Takes ownership of the sample; must be non-empty.
  explicit Empirical(std::vector<double> samples);

  double Mean() const override;
  double Variance() const override;
  /// Log of a kernel-free density is undefined for an empirical sample;
  /// returns the log-pdf of a moment-matched Gaussian as an approximation.
  double LogPdf(double x) const override;
  double Cdf(double x) const override;
  /// Type-7 sample quantile (SortedQuantile over the sorted sample).
  double Quantile(double p) const override;
  double Sample(Rng* rng) const override;

  size_t size() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
  double mean_;
  double variance_;
};

}  // namespace rpas::dist

#endif  // RPAS_DIST_EMPIRICAL_H_
