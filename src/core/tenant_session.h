#ifndef RPAS_CORE_TENANT_SESSION_H_
#define RPAS_CORE_TENANT_SESSION_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/scaling_config.h"
#include "forecast/forecaster.h"
#include "forecast/rolling_wql.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "select/classifier.h"
#include "select/prescaler.h"
#include "select/selector.h"
#include "simdb/cluster.h"
#include "simdb/faults.h"
#include "stream/refresher.h"
#include "stream/ring.h"
#include "ts/time_series.h"

namespace rpas::core {

/// Graceful-degradation policy for forecaster/planner faults (paper §IV-C
/// robustness story, generalized): a faulted planning round is retried a
/// bounded number of times; if the fault outlasts the retries the tenant
/// falls back to a conservative reactive plan derived from the last
/// known-good allocation and recently observed workload, and re-attempts a
/// fresh forecast a few steps later. A tenant never aborts because of an
/// injected fault.
struct DegradationPolicy {
  /// Failed planning attempts absorbed per round before falling back.
  int max_retries = 2;
  /// Steps a fallback plan covers before the next planning attempt.
  size_t fallback_plan_steps = 6;
  /// Trailing observed-workload window feeding the reactive fallback.
  size_t reactive_window = 6;
  /// Head-room multiplier on the observed peak while running blind.
  double reactive_safety_margin = 1.2;
};

/// What a planning round needs from its driver (TenantSession::BeginRound).
enum class RoundNeed {
  kFresh = 0,     ///< plan, then Install() or Degrade()
  kStale = 1,     ///< stale-forecast fault: the last good plan was replayed
  kFallback = 2,  ///< forecaster fault outlasted the retries: fell back
};

/// Why a round fell back to the reactive plan.
enum class DegradeCause {
  kForecasterFault = 0,  ///< injected forecaster fault outlasted the retries
  kPlannerError = 1,     ///< planner, engine or allocator returned an error
  kRefreshError = 2,     ///< incremental refresh failed
  kThrottled = 3,        ///< admission: the tenant's token bucket was empty
  kDeadlineShed = 4,     ///< admission: shed from the round's budget
};
inline constexpr size_t kNumDegradeCauses = 5;

/// One tenant's per-tenant control loop (paper Fig. 2: forecast, allocate
/// the quantile plan, actuate, observe). The session owns everything a
/// tenant carries across rounds — cluster, fault injector, plan and
/// cursor, last good plan, reactive window, ingest ring, refresher,
/// classifier, selector, pre-scaler, live forecast and staleness — and the
/// per-step records final accounting needs. Drivers only decide when a
/// round starts and where a fresh plan comes from:
///
///   need = BeginRound(step);   // faults, scoring, selection
///   Refresh(step);             // drain the stream, refresh the model
///   if (need == RoundNeed::kFresh) Install(plan, forecast) or Degrade(why);
///   Step(step) ... for each step the plan covers;
///   Finish();
///
/// core::RunOnlineLoop drives one session from a manager; serve::RunFleet
/// drives one per tenant from admission and the batch engine.
class TenantSession {
 public:
  struct Options {
    ScalingConfig scaling;
    simdb::Cluster::Options cluster;
    /// Fault schedule; a plan with no non-zero rate injects nothing.
    simdb::FaultPlan faults;
    DegradationPolicy degradation;
    /// Ingest ring capacity in points; 0 runs without a stream.
    size_t ring_capacity = 0;
    /// Fitted forecaster the session keeps current from its stream (not
    /// owned, must outlive the session); null refreshes nothing. Needs a
    /// ring and cannot be combined with selection.
    forecast::Forecaster* refresh_target = nullptr;
    stream::RefresherOptions refresher;
    /// Tiers of the forecaster ladder the selector chooses from; 0
    /// disables selection, classification and pre-scaling.
    size_t ladder_size = 0;
    select::ClassifierOptions classifier;
    /// `selector.ladder_size` is overwritten with `ladder_size`.
    select::SelectorOptions selector;
    bool prescale = true;
    select::PreScalerOptions prescaler;
    /// Receives every step's forecast staleness; may be null.
    obs::Histogram* staleness = nullptr;
  };

  /// Final accounting of a session.
  struct Summary {
    std::vector<int> allocation;  ///< node target applied at each step
    /// Rates against the workload the cluster saw (paper §IV-C).
    double under_provision_rate = 0.0;
    double over_provision_rate = 0.0;
    double mean_utilization = 0.0;
    double slo_violation_rate = 0.0;
    /// Every round is fresh, stale or fallback.
    size_t rounds = 0;
    size_t stale_rounds = 0;
    size_t fallback_rounds = 0;
    /// fallback_rounds split by DegradeCause.
    std::array<size_t, kNumDegradeCauses> fallbacks_by_cause{};
    /// Fresh rounds whose forecaster fault the retries absorbed.
    size_t retried_rounds = 0;
    std::vector<simdb::FaultEvent> fault_events;
    size_t faulted_steps = 0;   ///< steps with an active injected fault
    size_t degraded_steps = 0;  ///< steps run under a fallback plan
    /// Stream accounting (zero without a ring).
    uint64_t points_pushed = 0;
    uint64_t points_delivered = 0;  ///< read by the cursor
    uint64_t points_dropped = 0;    ///< overwritten before the cursor read
    uint64_t points_pending = 0;    ///< held by a stalled producer
    size_t ingest_stall_steps = 0;
    size_t ingest_bursts = 0;
    stream::RefreshStats refresh;
    /// Per-step age of the newest fresh forecast.
    double mean_staleness = 0.0;
    uint64_t max_staleness = 0;
    /// Per-round age of the serving model: 0 after a successful refresh,
    /// else the round's step.
    double mean_model_staleness = 0.0;
    uint64_t max_model_staleness = 0;
    /// Selection outcome (defaults without selection).
    size_t final_tier = 0;
    select::WorkloadPattern pattern = select::WorkloadPattern::kInsufficient;
    double rolling_wql = 0.0;
    select::SelectorStats selector;
    select::PreScalerStats prescaler;
  };

  /// `series` (not owned, must outlive the session) holds the tenant's
  /// observed history in [0, start) and the workload of step s at
  /// start + s. Primes the refresher and seeds the classifier, selector
  /// and reactive window from the history.
  static Result<std::unique_ptr<TenantSession>> Create(
      const ts::TimeSeries& series, size_t start, Options options);

  /// Opens the planning round at `step`: reads the step's faults, scores
  /// the expiring forecast once (feeding the selector, the rolling wQL and
  /// the refresher's drift guard), and advances the selector. A stale or
  /// fallback round is settled here; a fresh one awaits Install/Degrade.
  RoundNeed BeginRound(size_t step);

  /// Drains the ingest ring and folds the new points into the refresh
  /// target. Returns the refresher's error; the session stays usable.
  Status Refresh(size_t step);

  /// Settles a fresh round with a planned allocation and the forecast
  /// behind it. An empty plan is Internal and leaves the round open.
  Status Install(std::vector<int> plan, ts::QuantileForecast forecast);

  /// Settles a fresh round with the reactive fallback plan.
  void Degrade(DegradeCause cause);

  /// Applies the plan's next target (the last one once the plan runs out)
  /// to the cluster for `step` and records the observation.
  simdb::StepStats Step(size_t step);

  /// Final accounting; call once, after the last Step.
  Summary Finish();

  /// True between a BeginRound that returned kFresh and its Install or
  /// Degrade.
  bool awaiting_plan() const { return awaiting_plan_; }
  /// Ladder tier in force (0 without selection).
  size_t tier() const { return selector_ != nullptr ? selector_->tier() : 0; }
  /// One past the newest series index the stream has delivered (after this
  /// round's Refresh): start + step without a ring.
  size_t ObservedEnd() const;
  int current_nodes() const { return current_nodes_; }
  const simdb::Cluster& cluster() const { return cluster_; }
  const ScalingConfig& config() const { return scaling_; }
  size_t plan_size() const { return plan_.size(); }
  /// Steps of the current plan already applied.
  size_t plan_cursor() const { return cursor_; }

 private:
  TenantSession(const ts::TimeSeries& series, size_t start,
                const Options& options);

  void LogEvent(size_t step, simdb::FaultType type, double magnitude,
                simdb::FaultAction action = simdb::FaultAction::kNone,
                int retries = 0) {
    summary_.fault_events.push_back({step, type, action, retries, magnitude});
  }
  /// Forecaster attempts the round's injected fault cost.
  int FailedAttempts() const {
    return round_faults_.forecaster_timeout_attempts +
           (round_faults_.forecaster_nan ? 1 : 0);
  }
  simdb::FaultType ForecasterFaultType() const {
    return round_faults_.forecaster_timeout_attempts > 0
               ? simdb::FaultType::kForecasterTimeout
               : simdb::FaultType::kForecasterNan;
  }
  void Produce(size_t step, double point, bool stalled);

  const ts::TimeSeries& series_;
  const size_t start_;
  const ScalingConfig scaling_;
  DegradationPolicy policy_;
  obs::Histogram* const staleness_hist_;
  simdb::Cluster cluster_;
  std::unique_ptr<simdb::FaultInjector> injector_;  ///< null when inert

  // Plan in force and the round that set it.
  std::vector<int> plan_;
  size_t cursor_ = 0;
  std::vector<int> last_good_plan_;
  bool plan_is_fallback_ = false;
  bool awaiting_plan_ = false;
  size_t round_step_ = 0;
  simdb::StepFaults round_faults_;  ///< faults at the round's first step
  int current_nodes_ = 1;
  std::vector<double> recent_;  ///< reactive window of observed workload

  // Stream and incremental refresh.
  std::unique_ptr<stream::IngestRing> ring_;
  std::unique_ptr<stream::StreamCursor> stream_cursor_;
  std::unique_ptr<stream::IncrementalRefresher> refresher_;
  std::vector<double> stall_queue_;

  // Selection, and the fresh forecast scored when its plan expires (kept
  // only when a selector or refresher consumes the score).
  std::unique_ptr<select::WorkloadClassifier> classifier_;
  std::unique_ptr<select::AdaptiveSelector> selector_;
  std::unique_ptr<select::PreScaler> prescaler_;
  std::unique_ptr<forecast::RollingWql> rolling_;
  std::optional<ts::QuantileForecast> live_forecast_;
  size_t live_forecast_step_ = 0;

  // Per-step records and counters for Finish().
  std::vector<double> realized_;
  double utilization_sum_ = 0.0;
  size_t slo_violations_ = 0;
  size_t last_fresh_step_ = 0;
  uint64_t staleness_sum_ = 0;
  uint64_t model_staleness_sum_ = 0;
  Summary summary_;  ///< counters accumulate here as the session runs
};

/// One step's decision record, labelled `run`. The loop's CollectDecisions
/// and the fleet both build their records here, so both drivers export the
/// same fields under the same definitions (`faulted` is StepStats::faulted).
obs::ScalingDecision MakeScalingDecision(const simdb::StepStats& stats,
                                         std::string run);

/// Adds a driver's refresh and selection totals to their deterministic
/// counters on `metrics`, each row named after its stats field:
/// `stream.refresh.*` from `refresh`, `select.*` from `selector` and
/// `select.prescale.*` from `prescaler`; a null pointer adds no rows. The
/// loop and the fleet both mirror through here, so one quantity has one
/// name whichever driver ran it.
void IncrementControlCounters(obs::MetricsRegistry* metrics,
                              const stream::RefreshStats* refresh,
                              const select::SelectorStats* selector,
                              const select::PreScalerStats* prescaler);

}  // namespace rpas::core

#endif  // RPAS_CORE_TENANT_SESSION_H_
