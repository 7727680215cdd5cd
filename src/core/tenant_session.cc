#include "core/tenant_session.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "core/evaluator.h"
#include "ts/metrics.h"

namespace rpas::core {

Result<std::unique_ptr<TenantSession>> TenantSession::Create(
    const ts::TimeSeries& series, size_t start, Options options) {
  if (start > series.size()) {
    return Status::InvalidArgument("tenant session starts past its series");
  }
  if (options.refresh_target != nullptr) {
    if (options.ring_capacity == 0) {
      return Status::InvalidArgument(
          "incremental refresh needs an ingest ring");
    }
    if (options.ladder_size > 0) {
      return Status::InvalidArgument(
          "adaptive selection cannot be combined with incremental refresh: "
          "the refresher tracks one model, the ladder switches models");
    }
  }
  std::unique_ptr<TenantSession> session(
      new TenantSession(series, start, options));
  if (session->refresher_ != nullptr) {
    RPAS_RETURN_IF_ERROR(session->refresher_->Prime(series.Slice(0, start)));
  }
  return session;
}

TenantSession::TenantSession(const ts::TimeSeries& series, size_t start,
                             const Options& options)
    : series_(series),
      start_(start),
      scaling_(options.scaling),
      policy_(options.degradation),
      staleness_hist_(options.staleness),
      cluster_(options.cluster),
      current_nodes_(options.cluster.initial_nodes) {
  if (options.faults.Any()) {
    injector_ = std::make_unique<simdb::FaultInjector>(options.faults);
  }
  // A window and a fallback plan of at least one step each.
  policy_.reactive_window = std::max<size_t>(policy_.reactive_window, 1);
  policy_.fallback_plan_steps =
      std::max<size_t>(policy_.fallback_plan_steps, 1);
  // Seed the reactive window from history so even the first round can
  // degrade.
  for (size_t back = std::min(policy_.reactive_window, start_); back > 0;
       --back) {
    recent_.push_back(series_.values[start_ - back]);
  }
  if (options.ring_capacity > 0) {
    ring_ = std::make_unique<stream::IngestRing>(options.ring_capacity);
    stream_cursor_ = std::make_unique<stream::StreamCursor>(ring_.get());
  }
  if (options.refresh_target != nullptr) {
    refresher_ = std::make_unique<stream::IncrementalRefresher>(
        options.refresh_target, options.refresher);
  }
  if (options.ladder_size > 0) {
    // Classify the observed history and seed the starting tier from it.
    // Selection is a pure function of the observed sequence (no RNG), so it
    // perturbs no seeded schedule.
    classifier_ =
        std::make_unique<select::WorkloadClassifier>(options.classifier);
    classifier_->PushAll(std::vector<double>(
        series_.values.begin(),
        series_.values.begin() + static_cast<long>(start_)));
    select::SelectorOptions selector_options = options.selector;
    selector_options.ladder_size = options.ladder_size;
    selector_ = std::make_unique<select::AdaptiveSelector>(selector_options);
    selector_->SeedFromPattern(classifier_->Classify());
    if (options.prescale) {
      prescaler_ = std::make_unique<select::PreScaler>(options.prescaler,
                                                       scaling_.min_nodes);
    }
    rolling_ = std::make_unique<forecast::RollingWql>(
        selector_options.wql_window);
  }
}

RoundNeed TenantSession::BeginRound(size_t step) {
  ++summary_.rounds;
  round_step_ = step;
  plan_is_fallback_ = false;
  round_faults_ =
      injector_ ? injector_->FaultsForStep(step) : simdb::StepFaults{};
  const bool stale = round_faults_.stale_forecast && !last_good_plan_.empty();
  const bool fault_fallback =
      injector_ && !stale && FailedAttempts() > policy_.max_retries;

  // Score the expiring forecast once, against what realized since it
  // landed: the selector's promotion evidence, the rolling wQL, and the
  // refresher's drift guard.
  double wql = 0.0;
  const bool scored =
      live_forecast_.has_value() && step > live_forecast_step_;
  if (scored) {
    const size_t elapsed = std::min<size_t>(step - live_forecast_step_,
                                            live_forecast_->Horizon());
    const auto begin = series_.values.begin() +
                       static_cast<long>(start_ + live_forecast_step_);
    wql = ts::PrefixMeanWql(
        *live_forecast_,
        std::vector<double>(begin, begin + static_cast<long>(elapsed)));
    if (rolling_ != nullptr) {
      rolling_->Observe(wql);
    }
    if (refresher_ != nullptr) {
      refresher_->ObserveForecastLoss(wql);
    }
  }
  if (selector_ != nullptr) {
    selector_->ObserveRound(wql, scored, stale || fault_fallback);
  }

  if (stale) {
    // The forecaster served its cached forecast: replay the last good plan
    // from its start.
    plan_ = last_good_plan_;
    cursor_ = 0;
    ++summary_.stale_rounds;
    LogEvent(step, simdb::FaultType::kStaleForecast, 0.0);
    return RoundNeed::kStale;
  }
  if (fault_fallback) {
    Degrade(DegradeCause::kForecasterFault);
    return RoundNeed::kFallback;
  }
  awaiting_plan_ = true;
  return RoundNeed::kFresh;
}

Status TenantSession::Refresh(size_t step) {
  uint64_t model_staleness = step;
  Status status;
  if (stream_cursor_ != nullptr) {
    const stream::StreamCursor::Batch batch = stream_cursor_->Poll(nullptr);
    summary_.points_delivered += batch.count;
    if (refresher_ != nullptr) {
      // A stalled producer leaves the cursor behind the round, so the model
      // (and the planner, via ObservedEnd) sees a shorter history.
      status = refresher_
                   ->Refresh(series_.Slice(0, ObservedEnd()), batch.count,
                             batch.missed)
                   .status();
      if (status.ok()) {
        model_staleness = 0;
      }
    }
  }
  model_staleness_sum_ += model_staleness;
  summary_.max_model_staleness =
      std::max(summary_.max_model_staleness, model_staleness);
  return status;
}

Status TenantSession::Install(std::vector<int> plan,
                              ts::QuantileForecast forecast) {
  if (plan.empty()) {
    // Stepping an empty plan would index out of bounds; a planner that
    // yields no steps breaks its contract.
    return Status::Internal("tenant session: planner returned an empty plan");
  }
  if (FailedAttempts() > 0) {
    // The attempt after the failed ones landed within the retry budget.
    ++summary_.retried_rounds;
    LogEvent(round_step_, ForecasterFaultType(), 0.0,
             simdb::FaultAction::kRetrySucceeded, FailedAttempts());
  }
  awaiting_plan_ = false;
  plan_ = std::move(plan);
  cursor_ = 0;
  last_good_plan_ = plan_;
  last_fresh_step_ = round_step_;
  if (selector_ != nullptr || refresher_ != nullptr) {
    live_forecast_ = std::move(forecast);
    live_forecast_step_ = round_step_;
  }
  if (prescaler_ != nullptr) {
    // The fresh quantile plan is the spike predictor: schedule a floor
    // raise lead_steps ahead of any predicted spike.
    prescaler_->ObservePlan(plan_, round_step_);
  }
  return Status::OK();
}

void TenantSession::Degrade(DegradeCause cause) {
  if (cause == DegradeCause::kForecasterFault ||
      cause == DegradeCause::kPlannerError) {
    LogEvent(round_step_,
             cause == DegradeCause::kPlannerError
                 ? simdb::FaultType::kPlannerError
                 : ForecasterFaultType(),
             0.0,
             last_good_plan_.empty() ? simdb::FaultAction::kFallbackReactive
                                     : simdb::FaultAction::kFallbackLastGood,
             FailedAttempts());
  }
  awaiting_plan_ = false;
  ++summary_.fallback_rounds;
  ++summary_.fallbacks_by_cause[static_cast<size_t>(cause)];
  // Reactive fallback: hold the larger of the last good plan's final level
  // and the reactive-max need of the recent window (with head-room), and
  // never scale in below the current node count while running blind.
  double peak = 0.0;
  for (double w : recent_) {
    peak = std::max(peak, w);
  }
  int hold = RequiredNodes(peak * policy_.reactive_safety_margin,
                           scaling_);
  if (!last_good_plan_.empty()) {
    hold = std::max(hold, last_good_plan_.back());
  }
  hold = std::max(hold, current_nodes_);
  plan_.assign(policy_.fallback_plan_steps, hold);
  cursor_ = 0;
  plan_is_fallback_ = true;
}

simdb::StepStats TenantSession::Step(size_t step) {
  RPAS_CHECK(!plan_.empty() && !awaiting_plan_)
      << "tenant session stepped before its round had a plan";
  const simdb::StepFaults faults =
      injector_ ? injector_->FaultsForStep(step) : simdb::StepFaults{};
  int target = plan_[std::min(cursor_, plan_.size() - 1)];
  ++cursor_;
  if (prescaler_ != nullptr) {
    // Monotone merge: the pre-scale floor can only raise the decision,
    // never fight the plan downward.
    target = prescaler_->Merge(target, step);
  }
  const double point = series_.values[start_ + step];
  const simdb::StepStats stats = cluster_.Step(target, point, faults);
  current_nodes_ = cluster_.NumNodes();
  if (stats.nodes_delayed > 0) {
    LogEvent(step, simdb::FaultType::kActuationDelay, stats.nodes_delayed);
  }
  if (stats.nodes_denied > 0) {
    LogEvent(step, simdb::FaultType::kPartialScaleOut, stats.nodes_denied);
  }
  if (faults.crash_nodes > 0 && stats.nodes_failed > 0) {
    LogEvent(step, simdb::FaultType::kNodeCrash, stats.nodes_failed);
  }
  if (faults.workload_multiplier != 1.0) {
    LogEvent(step, simdb::FaultType::kWorkloadSpike,
             faults.workload_multiplier);
  }
  if (stats.faulted) {
    ++summary_.faulted_steps;
  }
  if (plan_is_fallback_) {
    ++summary_.degraded_steps;
  }
  recent_.push_back(stats.workload);
  if (recent_.size() > policy_.reactive_window) {
    recent_.erase(recent_.begin());
  }
  if (classifier_ != nullptr) {
    classifier_->Push(stats.workload);
  }
  realized_.push_back(stats.workload);
  summary_.allocation.push_back(target);
  utilization_sum_ += stats.avg_utilization;
  slo_violations_ += stats.slo_violated ? 1 : 0;

  // Forecast staleness: age of the newest fresh plan.
  const uint64_t staleness = static_cast<uint64_t>(step - last_fresh_step_);
  staleness_sum_ += staleness;
  summary_.max_staleness = std::max(summary_.max_staleness, staleness);
  if (staleness_hist_ != nullptr) {
    staleness_hist_->Observe(static_cast<double>(staleness));
  }
  if (ring_ != nullptr) {
    Produce(step, point, faults.ingest_stalled);
  }
  return stats;
}

void TenantSession::Produce(size_t step, double point, bool stalled) {
  // The realized point enters the stream after its step, so the next round
  // can consume it. A stalled producer queues points and burst-flushes
  // them once the stall clears.
  if (stalled) {
    stall_queue_.push_back(point);
    ++summary_.ingest_stall_steps;
    LogEvent(step, simdb::FaultType::kIngestStall,
             static_cast<double>(stall_queue_.size()));
    return;
  }
  if (!stall_queue_.empty()) {
    for (double queued : stall_queue_) {
      ring_->Push(queued);
    }
    summary_.points_pushed += stall_queue_.size();
    ++summary_.ingest_bursts;
    LogEvent(step, simdb::FaultType::kIngestBurst,
             static_cast<double>(stall_queue_.size()));
    stall_queue_.clear();
  }
  ring_->Push(point);
  ++summary_.points_pushed;
}

size_t TenantSession::ObservedEnd() const {
  return start_ + (stream_cursor_ != nullptr
                       ? static_cast<size_t>(stream_cursor_->next_seq())
                       : round_step_);
}

TenantSession::Summary TenantSession::Finish() {
  Summary summary = std::move(summary_);
  if (stream_cursor_ != nullptr) {
    if (refresher_ == nullptr) {
      // A stream that only counts reads what the last round left, so every
      // pushed point ends delivered or dropped. A refresher leaves those
      // points to a next round that never comes.
      summary.points_delivered += stream_cursor_->Poll(nullptr).count;
    }
    // The cursor's missed count, not the ring's dropped(): the ring's tail
    // also advances past slots the cursor had already read.
    summary.points_dropped = stream_cursor_->missed_total();
    summary.points_pending = stall_queue_.size();
  }
  if (refresher_ != nullptr) {
    summary.refresh = refresher_->stats();
  }
  const ProvisioningReport provisioning =
      EvaluateAllocation(realized_, summary.allocation, scaling_);
  summary.under_provision_rate = provisioning.under_provision_rate;
  summary.over_provision_rate = provisioning.over_provision_rate;
  const double steps = static_cast<double>(realized_.size());
  summary.mean_utilization = utilization_sum_ / steps;
  summary.slo_violation_rate = static_cast<double>(slo_violations_) / steps;
  summary.mean_staleness = static_cast<double>(staleness_sum_) / steps;
  summary.mean_model_staleness = static_cast<double>(model_staleness_sum_) /
                                 static_cast<double>(summary.rounds);
  if (selector_ != nullptr) {
    if (prescaler_ != nullptr) {
      // Roll back any in-flight floor raise so activations balance
      // rollbacks at the end of every run.
      prescaler_->Finish();
      summary.prescaler = prescaler_->stats();
    }
    summary.final_tier = selector_->tier();
    summary.pattern = classifier_->Classify();
    summary.rolling_wql = rolling_->Mean();
    summary.selector = selector_->stats();
  }
  return summary;
}

obs::ScalingDecision MakeScalingDecision(const simdb::StepStats& stats,
                                         std::string run) {
  obs::ScalingDecision d;
  d.run = std::move(run);
  d.step = static_cast<uint64_t>(stats.step);
  d.target_nodes = stats.target_nodes;
  d.active_nodes = stats.active_nodes;
  d.workload = stats.workload;
  d.utilization = stats.avg_utilization;
  d.under_provisioned = stats.under_provisioned;
  d.slo_violated = stats.slo_violated;
  d.faulted = stats.faulted;
  return d;
}

void IncrementControlCounters(obs::MetricsRegistry* metrics,
                              const stream::RefreshStats* refresh,
                              const select::SelectorStats* selector,
                              const select::PreScalerStats* prescaler) {
  if (refresh != nullptr) {
    obs::IncrementCounters(
        metrics,
        {{"stream.refresh.refreshes", refresh->refreshes},
         {"stream.refresh.points_consumed", refresh->points_consumed},
         {"stream.refresh.recursive_updates", refresh->recursive_updates},
         {"stream.refresh.fine_tunes", refresh->fine_tunes},
         {"stream.refresh.gradient_steps", refresh->gradient_steps},
         {"stream.refresh.resyncs", refresh->resyncs},
         {"stream.refresh.full_retrains", refresh->full_retrains}});
  }
  if (selector != nullptr) {
    obs::IncrementCounters(
        metrics, {{"select.rounds", selector->rounds},
                  {"select.switches", selector->switches},
                  {"select.promotions", selector->promotions},
                  {"select.probe_demotions", selector->probe_demotions},
                  {"select.fault_demotions", selector->fault_demotions},
                  {"select.drift_demotions", selector->drift_demotions}});
  }
  if (prescaler != nullptr) {
    obs::IncrementCounters(
        metrics,
        {{"select.prescale.plans_observed", prescaler->plans_observed},
         {"select.prescale.spikes_detected", prescaler->spikes_detected},
         {"select.prescale.activations", prescaler->activations},
         {"select.prescale.rollbacks", prescaler->rollbacks},
         {"select.prescale.timeout_rollbacks", prescaler->timeout_rollbacks},
         {"select.prescale.floor_raised_steps",
          prescaler->floor_raised_steps}});
  }
}

}  // namespace rpas::core
