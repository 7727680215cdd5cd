#ifndef RPAS_SERVE_ADMISSION_H_
#define RPAS_SERVE_ADMISSION_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace rpas::serve {

/// Outcome of admission for one tenant's planning-round request.
enum class AdmissionVerdict : int {
  kAdmitted = 0,      ///< request proceeds to the inference engine
  kThrottled = 1,     ///< tenant exhausted its token bucket this round
  kDeadlineShed = 2,  ///< round's inference budget full; request shed to
                      ///< meet the planning deadline
};
std::string_view AdmissionVerdictToString(AdmissionVerdict verdict);

/// Admission control for the serving tier: per-tenant token-bucket rate
/// limits plus a per-round inference budget standing in for the planning
/// deadline (the round must finish before the next scaling decision, so
/// only `round_budget` forecasts may run; the rest degrade to the reactive
/// fallback — a tenant's round is *never* dropped, see fleet.h).
///
/// Deadline shedding is fair across rounds: tenants are ranked by a
/// priority rotated one position per round, so under persistent overload
/// every tenant gets fresh forecasts at the same long-run rate instead of
/// the highest-id tenants starving. Verdicts are a pure function of
/// (options, admission history), independent of thread count — the fleet's
/// determinism contract depends on this. A fleet runs one controller for
/// all of its shards, once per round on the calling thread.
class AdmissionController {
 public:
  struct Options {
    /// Token-bucket capacity per tenant (burst allowance).
    double bucket_capacity = 4.0;
    /// Tokens refilled per round (steady-state fresh-forecast rate);
    /// finite and non-negative.
    double refill_per_round = 1.0;
    /// Tokens one admitted request costs.
    double cost_per_request = 1.0;
    /// Max requests admitted per round; 0 = unbounded (no deadline shed).
    size_t round_budget = 0;
    /// Metrics sink for serve.admission.* counters; null routes to
    /// obs::MetricsRegistry::Global(). Must outlive the controller.
    obs::MetricsRegistry* metrics = nullptr;
  };

  AdmissionController(Options options, size_t num_tenants);

  /// Advances to the next round: refills every bucket and rotates the
  /// shedding priority. Call once per planning round, before AdmitRound.
  void BeginRound();

  /// Decides admission for the tenants requesting a fresh forecast this
  /// round (ids must be < num_tenants, duplicates allowed — each entry is
  /// charged separately). Returns one verdict per entry, in input order.
  std::vector<AdmissionVerdict> AdmitRound(
      const std::vector<uint64_t>& tenants);

  const Options& options() const { return options_; }

 private:
  Options options_;
  std::vector<double> tokens_;
  uint64_t round_ = 0;
  obs::Counter* admitted_counter_ = nullptr;
  obs::Counter* throttled_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
};

}  // namespace rpas::serve

#endif  // RPAS_SERVE_ADMISSION_H_
