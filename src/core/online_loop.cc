#include "core/online_loop.h"

#include <memory>
#include <utility>

#include "common/stopwatch.h"

namespace rpas::core {

Result<OnlineLoopResult> RunOnlineLoop(const RobustAutoScalingManager& manager,
                                       const ts::TimeSeries& series,
                                       size_t eval_start, size_t num_steps,
                                       const OnlineLoopOptions& options) {
  if (num_steps == 0) {
    return Status::InvalidArgument("online loop needs at least one step");
  }
  if (eval_start + num_steps > series.size()) {
    return Status::InvalidArgument(
        "evaluation range extends past the series");
  }
  if (eval_start < manager.ContextLength()) {
    return Status::InvalidArgument(
        "eval_start leaves less history than the forecaster's context "
        "length");
  }

  const bool streaming =
      options.streaming.refresh_mode == RefreshMode::kIncremental;
  if (streaming && options.streaming.refresh_target == nullptr) {
    return Status::InvalidArgument(
        "incremental refresh mode needs a refresh_target forecaster");
  }

  const bool selecting =
      options.selection.mode == SelectionMode::kAdaptive;
  if (selecting) {
    if (options.selection.ladder.empty()) {
      return Status::InvalidArgument(
          "adaptive selection needs a non-empty candidate ladder");
    }
    for (const RobustAutoScalingManager* candidate :
         options.selection.ladder) {
      if (candidate == nullptr) {
        return Status::InvalidArgument(
            "adaptive selection ladder contains a null manager");
      }
      if (eval_start < candidate->ContextLength()) {
        return Status::InvalidArgument(
            "eval_start leaves less history than a ladder candidate's "
            "context length");
      }
    }
  }

  obs::TraceBuffer* trace = obs::ResolveTrace(options.trace);
  obs::Span run_span(trace, "online.run", static_cast<int64_t>(num_steps));
  obs::MetricsRegistry* metrics = obs::ResolveRegistry(options.metrics);

  TenantSession::Options session_options;
  session_options.scaling = manager.config();
  session_options.cluster = options.cluster;
  session_options.faults = options.faults;
  session_options.degradation = options.degradation;
  if (streaming) {
    session_options.ring_capacity = options.streaming.ring_capacity;
    session_options.refresh_target = options.streaming.refresh_target;
    session_options.refresher = options.streaming.refresher;
  }
  if (selecting) {
    session_options.ladder_size = options.selection.ladder.size();
    session_options.classifier = options.selection.classifier;
    session_options.selector = options.selection.selector;
    session_options.prescale = options.selection.prescale;
    session_options.prescaler = options.selection.prescaler;
  }
  session_options.staleness =
      metrics->GetHistogram("online.staleness_points");
  RPAS_ASSIGN_OR_RETURN(
      std::unique_ptr<TenantSession> session,
      TenantSession::Create(series, eval_start, std::move(session_options)));

  OnlineLoopResult result;
  result.steps.reserve(num_steps);
  const bool inject = options.faults.Any();
  double uncertainty_sum = 0.0;
  size_t uncertainty_n = 0;
  for (size_t i = 0; i < num_steps; ++i) {
    if (session->plan_cursor() >= session->plan_size() ||
        (options.replan_every > 0 &&
         session->plan_cursor() >= options.replan_every)) {
      // Planning round. The session settles stale and fallback rounds; a
      // fresh one plans from what the stream delivered (everything realized
      // so far in kBatch mode) with the manager of the selected tier.
      obs::Span plan_span(trace, "online.plan", static_cast<int64_t>(i));
      const RoundNeed need = session->BeginRound(i);
      if (selecting) {
        result.selection.tier_by_round.push_back(session->tier());
      }
      rpas::Stopwatch refresh_watch;
      RPAS_RETURN_IF_ERROR(session->Refresh(i));
      if (streaming) {
        metrics->GetHistogram("stream.refresh_ms", {}, /*deterministic=*/false)
            ->Observe(refresh_watch.ElapsedMillis());
      }
      rpas::Stopwatch plan_watch;
      if (need == RoundNeed::kFresh) {
        const RobustAutoScalingManager& active =
            selecting ? *options.selection.ladder[session->tier()] : manager;
        auto plan_or = active.PlanNext(series.Slice(0, session->ObservedEnd()),
                                       session->current_nodes());
        if (!plan_or.ok()) {
          // Without a fault plan a planner error surfaces; under injection
          // it degrades like any other fault and the loop keeps serving.
          if (!inject) {
            return plan_or.status();
          }
          session->Degrade(DegradeCause::kPlannerError);
        } else {
          for (double u : plan_or->uncertainty) {
            uncertainty_sum += u;
            ++uncertainty_n;
          }
          RPAS_RETURN_IF_ERROR(session->Install(std::move(plan_or->nodes),
                                                std::move(plan_or->forecast)));
        }
      }
      metrics->GetHistogram("online.plan_ms", {}, /*deterministic=*/false)
          ->Observe(plan_watch.ElapsedMillis());
    }
    result.steps.push_back(session->Step(i));
  }

  // Rates are scored against what the cluster saw (stats.workload), so
  // under workload-spike faults they report against the faulted demand.
  TenantSession::Summary summary = session->Finish();
  result.allocation = std::move(summary.allocation);
  result.under_provision_rate = summary.under_provision_rate;
  result.over_provision_rate = summary.over_provision_rate;
  result.mean_utilization = summary.mean_utilization;
  result.slo_violation_rate = summary.slo_violation_rate;
  result.total_node_steps = session->cluster().total_node_steps();
  result.scale_events = session->cluster().total_scale_events();
  result.direction_changes = session->cluster().total_direction_changes();
  result.plans_made = summary.rounds;
  result.mean_uncertainty =
      uncertainty_n > 0 ? uncertainty_sum / static_cast<double>(uncertainty_n)
                        : 0.0;
  result.fault_events = std::move(summary.fault_events);
  const size_t fault_fallbacks = summary.fallbacks_by_cause[static_cast<size_t>(
      DegradeCause::kForecasterFault)];
  result.forecaster_faults = fault_fallbacks + summary.retried_rounds;
  result.retried_plans = summary.retried_rounds;
  result.fallback_plans = summary.fallback_rounds;
  result.stale_plans = summary.stale_rounds;
  result.faulted_steps = summary.faulted_steps;
  result.degraded_steps = summary.degraded_steps;
  result.points_ingested = summary.points_pushed;
  result.points_pending = summary.points_pending;
  result.points_dropped = summary.points_dropped;
  result.ingest_stall_steps = summary.ingest_stall_steps;
  result.ingest_bursts = summary.ingest_bursts;
  result.refresh = summary.refresh;
  result.mean_staleness_points = summary.mean_staleness;
  result.max_staleness_points = summary.max_staleness;
  if (selecting) {
    result.selection.enabled = true;
    result.selection.final_tier = summary.final_tier;
    result.selection.pattern = summary.pattern;
    result.selection.rolling_wql = summary.rolling_wql;
    result.selection.selector = summary.selector;
    result.selection.prescaler = summary.prescaler;
  }

  // Registry counters mirror the finished result, so they agree *exactly*
  // with the OnlineLoopResult fields (see tests/obs_test.cc) and stay
  // deterministic across thread counts.
  obs::IncrementCounters(
      metrics, {{"online.steps", num_steps},
                {"online.plans_made", result.plans_made},
                {"online.forecaster_faults", result.forecaster_faults},
                {"online.retried_plans", result.retried_plans},
                {"online.fallback_plans", result.fallback_plans},
                {"online.stale_plans", result.stale_plans},
                {"online.faulted_steps", result.faulted_steps},
                {"online.degraded_steps", result.degraded_steps},
                {"online.fault_events", result.fault_events.size()}});
  if (streaming) {
    obs::IncrementCounters(
        metrics, {{"stream.ingested", result.points_ingested},
                  {"stream.dropped", result.points_dropped},
                  {"stream.pending", result.points_pending},
                  {"online.ingest_stall_steps", result.ingest_stall_steps},
                  {"online.ingest_bursts", result.ingest_bursts}});
  }
  IncrementControlCounters(
      metrics, streaming ? &result.refresh : nullptr,
      selecting ? &result.selection.selector : nullptr,
      selecting ? &result.selection.prescaler : nullptr);
  return result;
}

std::vector<obs::ScalingDecision> CollectDecisions(
    const OnlineLoopResult& result, const std::string& run) {
  std::vector<obs::ScalingDecision> decisions;
  decisions.reserve(result.steps.size());
  for (const simdb::StepStats& stats : result.steps) {
    decisions.push_back(MakeScalingDecision(stats, run));
  }
  return decisions;
}

}  // namespace rpas::core
