#ifndef RPAS_CORE_ONLINE_LOOP_H_
#define RPAS_CORE_ONLINE_LOOP_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/manager.h"
#include "core/tenant_session.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "select/classifier.h"
#include "select/prescaler.h"
#include "select/selector.h"
#include "simdb/cluster.h"
#include "simdb/faults.h"
#include "stream/refresher.h"
#include "ts/time_series.h"

namespace rpas::core {

/// How the loop keeps the forecaster current while workload streams in.
enum class RefreshMode {
  /// Re-plan from the full observed history each round, model state frozen
  /// between rounds — byte-for-byte the pre-streaming loop.
  kBatch = 0,
  /// Points flow through a stream::IngestRing; each planning round first
  /// folds the new points into the forecaster via an IncrementalRefresher
  /// (O(new points) per round), then plans from the observed history.
  kIncremental = 1,
};

/// Streaming-ingestion configuration (inert in kBatch mode).
struct StreamingOptions {
  RefreshMode refresh_mode = RefreshMode::kBatch;
  /// The forecaster to refresh incrementally. Required (non-null) in
  /// kIncremental mode; it must be the same model the manager plans with
  /// and must already be fitted. Non-const because refreshing mutates it.
  forecast::Forecaster* refresh_target = nullptr;
  /// Ingest ring capacity (points). When the loop outruns consumption the
  /// ring drops oldest and the refresher resyncs from history.
  size_t ring_capacity = 4096;
  stream::RefresherOptions refresher;
};

/// Whether the loop routes planning through the adaptive selection layer.
enum class SelectionMode {
  /// Plan with the `manager` argument every round — byte-for-byte the
  /// pre-selection loop.
  kOff = 0,
  /// Classify the workload, seed a tier on the candidate ladder, then
  /// promote/demote per round on rolling wQL + fault counters, and merge
  /// the PreScaler floor into every step's decision.
  kAdaptive = 1,
};

/// Adaptive model-selection configuration (inert in kOff mode).
struct SelectionOptions {
  SelectionMode mode = SelectionMode::kOff;
  /// Candidate managers, cheapest first (e.g. seasonal-naive -> ARIMA ->
  /// MLP -> DeepAR). Required non-empty in kAdaptive mode; entries must
  /// outlive the run. All entries should share one ScalingConfig — the
  /// degradation fallback still derives from the `manager` argument.
  std::vector<const RobustAutoScalingManager*> ladder;
  select::ClassifierOptions classifier;
  /// `selector.ladder_size` is overwritten with `ladder.size()`.
  select::SelectorOptions selector;
  /// TRUE pre-scaling: raise the capacity floor ahead of predicted spikes
  /// with auto-rollback. Off leaves decisions untouched.
  bool prescale = true;
  select::PreScalerOptions prescaler;
};

/// Configuration of the online auto-scaling loop.
struct OnlineLoopOptions {
  /// Steps between re-planning events; 0 = the forecaster's full horizon.
  size_t replan_every = 0;
  /// Cluster simulator configuration; `node_capacity` is Eq. 3's theta.
  simdb::Cluster::Options cluster;
  /// Deterministic fault schedule. The default (all-zero) plan is inert:
  /// the loop byte-for-byte reproduces its fault-free behavior.
  simdb::FaultPlan faults;
  /// Recovery behavior under forecaster/planner faults.
  DegradationPolicy degradation;
  /// Metrics sink for the loop's `online.*` counters; null routes to
  /// obs::MetricsRegistry::Global(). The counters are bulk-incremented from
  /// the finished OnlineLoopResult, so registry values agree exactly with
  /// the result fields — and, like them, are deterministic given seeds.
  obs::MetricsRegistry* metrics = nullptr;
  /// Trace sink for the "online.run" / "online.plan" spans; null routes to
  /// obs::TraceBuffer::Global().
  obs::TraceBuffer* trace = nullptr;
  /// Streaming ingestion / incremental-refresh configuration. The default
  /// (kBatch) leaves the loop bit-identical to the pre-streaming code path.
  StreamingOptions streaming;
  /// Adaptive model selection + pre-scaling. The default (kOff) leaves the
  /// loop bit-identical to the pre-selection code path. kAdaptive cannot be
  /// combined with RefreshMode::kIncremental (the refresher holds state for
  /// exactly one model; the ladder switches models between rounds).
  SelectionOptions selection;
};

/// Outcome of an online run.
struct OnlineLoopResult {
  /// Node allocation actually applied at each step.
  std::vector<int> allocation;
  /// Per-step cluster observations.
  std::vector<simdb::StepStats> steps;
  /// Analytic provisioning rates against realized workload (paper §IV-C).
  double under_provision_rate = 0.0;
  double over_provision_rate = 0.0;
  /// Realized (simulator) outcomes.
  double mean_utilization = 0.0;
  double slo_violation_rate = 0.0;
  int64_t total_node_steps = 0;
  int scale_events = 0;
  int direction_changes = 0;
  /// Number of forecasting/planning rounds executed (including degraded
  /// rounds served by a stale or fallback plan).
  size_t plans_made = 0;
  /// Mean per-step forecast uncertainty U across all successful plans.
  double mean_uncertainty = 0.0;

  /// Per-step fault/recovery event log (empty without a fault plan).
  std::vector<simdb::FaultEvent> fault_events;
  /// Planning rounds hit by a forecaster fault (timeout or NaN).
  size_t forecaster_faults = 0;
  /// Rounds recovered via bounded retry.
  size_t retried_plans = 0;
  /// Rounds degraded to a reactive / last-known-good fallback plan.
  size_t fallback_plans = 0;
  /// Rounds served a stale (cached previous) forecast.
  size_t stale_plans = 0;
  /// Steps with at least one active injected fault.
  size_t faulted_steps = 0;
  /// Steps executed under a fallback plan (degraded operation).
  size_t degraded_steps = 0;

  // --- Streaming ingest accounting (zero in kBatch mode) -----------------
  /// Points pushed into the ingest ring.
  uint64_t points_ingested = 0;
  /// Points still queued at the (stalled) producer when the run ended.
  uint64_t points_pending = 0;
  /// Points the ring dropped (overwritten before any consumer read them).
  uint64_t points_dropped = 0;
  /// Steps whose ingest was suppressed by an injected producer stall.
  size_t ingest_stall_steps = 0;
  /// Burst flushes after a stall cleared.
  size_t ingest_bursts = 0;
  /// Refresher dispatch accounting (what each refresh round did).
  stream::RefreshStats refresh;

  // --- Adaptive selection outcome (inert fields in kOff mode) ------------
  struct SelectionOutcome {
    bool enabled = false;
    /// Ladder tier the run ended on (0 = cheapest).
    size_t final_tier = 0;
    /// Workload pattern of the classifier's window at the end of the run.
    select::WorkloadPattern pattern = select::WorkloadPattern::kInsufficient;
    /// Tier active on each planning round; length == plans_made.
    std::vector<size_t> tier_by_round;
    /// Rolling mean wQL of the active model at the end of the run.
    double rolling_wql = 0.0;
    select::SelectorStats selector;
    select::PreScalerStats prescaler;
  };
  SelectionOutcome selection;

  // --- Forecast staleness (tracked in BOTH modes) ------------------------
  /// Per-step age of the newest fresh forecast, in steps/points: 0 on the
  /// step a fresh plan lands, growing by 1 per step under stale/fallback
  /// plans. Mirrored into the "online.staleness_points" histogram.
  double mean_staleness_points = 0.0;
  uint64_t max_staleness_points = 0;
};

/// Runs the full deployment loop of paper Fig. 2 *online*: at every
/// re-planning point the manager forecasts from the history observed so
/// far and produces a node plan; the plan drives the disaggregated-database
/// cluster simulator step by step while realized workload arrives. This is
/// the closed-loop counterpart of the open-loop evaluators in evaluator.h.
/// The loop drives one TenantSession: it opens a round whenever the plan in
/// force runs out or `replan_every` steps have passed (so a fallback plan
/// shorter than `replan_every` replans early), and plans fresh rounds with
/// `manager` or the selected ladder manager.
///
/// Validated up front: `series` must contain at least
/// `eval_start + num_steps` observations and `eval_start` must leave at
/// least the forecaster's context length of history; violations return
/// InvalidArgument before any simulation work.
///
/// When `options.faults` is non-zero, scheduled faults are injected into
/// actuation, the cluster, and the planning path; every fault and the
/// recovery action taken is appended to `OnlineLoopResult::fault_events`.
Result<OnlineLoopResult> RunOnlineLoop(const RobustAutoScalingManager& manager,
                                       const ts::TimeSeries& series,
                                       size_t eval_start, size_t num_steps,
                                       const OnlineLoopOptions& options);

/// Flattens a finished run into per-step obs::ScalingDecision records for
/// the structured exporters (obs/export.h). `run` labels every record (use
/// it to distinguish strategies or fault rates in one export). A step's
/// `faulted` flag is true iff an injected fault was active at it
/// (StepStats::faulted, StepFaults::Any()), so the flagged count equals
/// `faulted_steps`, and the fleet's records use the same rule.
std::vector<obs::ScalingDecision> CollectDecisions(
    const OnlineLoopResult& result, const std::string& run);

}  // namespace rpas::core

#endif  // RPAS_CORE_ONLINE_LOOP_H_
