#include "serve/admission.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace rpas::serve {

std::string_view AdmissionVerdictToString(AdmissionVerdict verdict) {
  switch (verdict) {
    case AdmissionVerdict::kAdmitted:
      return "admitted";
    case AdmissionVerdict::kThrottled:
      return "throttled";
    case AdmissionVerdict::kDeadlineShed:
      return "deadline_shed";
  }
  return "unknown";
}

AdmissionController::AdmissionController(Options options, size_t num_tenants)
    : options_(options) {
  RPAS_CHECK(num_tenants > 0);
  RPAS_CHECK(options_.bucket_capacity > 0.0);
  RPAS_CHECK(options_.cost_per_request > 0.0);
  RPAS_CHECK(std::isfinite(options_.refill_per_round) &&
             options_.refill_per_round >= 0.0);
  // Buckets start full so the first round is never throttled.
  tokens_.assign(num_tenants, options_.bucket_capacity);
  // Handles resolve once here, never on the admit path.
  obs::MetricsRegistry* metrics = obs::ResolveRegistry(options_.metrics);
  admitted_counter_ = metrics->GetCounter("serve.admission.admitted");
  throttled_counter_ = metrics->GetCounter("serve.admission.throttled");
  shed_counter_ = metrics->GetCounter("serve.admission.shed");
}

void AdmissionController::BeginRound() {
  ++round_;
  for (double& tokens : tokens_) {
    tokens = std::min(options_.bucket_capacity,
                      tokens + options_.refill_per_round);
  }
}

std::vector<AdmissionVerdict> AdmissionController::AdmitRound(
    const std::vector<uint64_t>& tenants) {
  const size_t num_tenants = tokens_.size();
  std::vector<AdmissionVerdict> verdicts(tenants.size(),
                                         AdmissionVerdict::kThrottled);
  // Token screen: a throttled tenant is out of the running before the
  // deadline budget is allocated (its bucket is left untouched — it pays
  // nothing for a round it did not get). Duplicate entries for one tenant
  // accrue cost within the round.
  std::vector<size_t> candidates;
  candidates.reserve(tenants.size());
  std::vector<double> pending_cost(num_tenants, 0.0);
  for (size_t i = 0; i < tenants.size(); ++i) {
    RPAS_CHECK(tenants[i] < num_tenants) << "tenant id out of range";
    const size_t t = tenants[i];
    if (tokens_[t] - pending_cost[t] >= options_.cost_per_request) {
      pending_cost[t] += options_.cost_per_request;
      candidates.push_back(i);
    }
  }
  const size_t screened = candidates.size();

  // Deadline budget with rotated priority. offset advances one tenant per
  // round, so the shed set cycles instead of always hitting the same
  // tenants.
  const size_t budget = options_.round_budget;
  if (budget != 0 && candidates.size() > budget) {
    const uint64_t offset = round_ % num_tenants;
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](size_t a, size_t b) {
                       const uint64_t pa =
                           (tenants[a] + num_tenants - offset) % num_tenants;
                       const uint64_t pb =
                           (tenants[b] + num_tenants - offset) % num_tenants;
                       return pa < pb;
                     });
    for (size_t k = budget; k < candidates.size(); ++k) {
      verdicts[candidates[k]] = AdmissionVerdict::kDeadlineShed;
    }
    candidates.resize(budget);
  }

  for (size_t i : candidates) {
    verdicts[i] = AdmissionVerdict::kAdmitted;
    tokens_[tenants[i]] -= options_.cost_per_request;
  }
  const size_t admitted = candidates.size();
  admitted_counter_->Increment(static_cast<int64_t>(admitted));
  throttled_counter_->Increment(
      static_cast<int64_t>(tenants.size() - screened));
  shed_counter_->Increment(static_cast<int64_t>(screened - admitted));
  return verdicts;
}

}  // namespace rpas::serve
