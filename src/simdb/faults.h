#ifndef RPAS_SIMDB_FAULTS_H_
#define RPAS_SIMDB_FAULTS_H_

#include <cstdint>
#include <string_view>

#include "common/rng.h"

namespace rpas::simdb {

/// Categories of injected faults (RobustScaler / OptScaler both evaluate
/// their controllers under injected anomalies; this enumerates the failure
/// modes the online loop is stressed with).
enum class FaultType : int {
  kActuationDelay = 0,    ///< scale-out request deferred for k steps
  kPartialScaleOut = 1,   ///< requested N new nodes, fewer were granted
  kNodeCrash = 2,         ///< transient loss of running nodes
  kWorkloadSpike = 3,     ///< realized workload multiplied this step
  kForecasterTimeout = 4, ///< forecaster produced no answer in time
  kForecasterNan = 5,     ///< forecaster output contained non-finite values
  kStaleForecast = 6,     ///< forecaster served a cached, outdated forecast
  kPlannerError = 7,      ///< planner returned a genuine error status
  kIngestStall = 8,       ///< stream producer stalled; no points ingested
  kIngestBurst = 9,       ///< stalled points flushed in one burst append
};
std::string_view FaultTypeToString(FaultType type);

/// What the online loop's graceful-degradation policy did about a fault.
enum class FaultAction : int {
  kNone = 0,              ///< observed only; no recovery needed
  kRetrySucceeded = 1,    ///< bounded retry recovered a usable plan
  kFallbackLastGood = 2,  ///< degraded to the last known-good plan level
  kFallbackReactive = 3,  ///< degraded to a reactive plan from observations
};
std::string_view FaultActionToString(FaultAction action);

/// One entry of the per-step fault/recovery event log appended to
/// OnlineLoopResult.
struct FaultEvent {
  size_t step = 0;        ///< loop step index (0-based, relative to start)
  FaultType type = FaultType::kActuationDelay;
  FaultAction action = FaultAction::kNone;
  int retries = 0;        ///< failed attempts absorbed before recovery
  double magnitude = 0.0; ///< fault-specific size (nodes lost, multiplier..)
};

/// Seed-deterministic schedule of faults. Each rate is an independent
/// per-step Bernoulli probability; a rate of zero disables that fault
/// entirely. An all-zero plan is inert: the online loop takes exactly the
/// pre-fault code path and its output is bit-identical to a run without a
/// plan.
struct FaultPlan {
  /// Scale-out actuation is deferred: a firing at step s suppresses node
  /// additions for steps s .. s + actuation_delay_steps - 1 (the autoscaler
  /// keeps re-requesting, so capacity arrives once the outage clears).
  double actuation_delay_rate = 0.0;
  int actuation_delay_steps = 2;

  /// Scale-out is granted only partially: of N requested new nodes,
  /// floor(N * partial_fraction) arrive this step.
  double partial_scaleout_rate = 0.0;
  double partial_fraction = 0.5;

  /// Transient crash of up to `crash_nodes` running nodes (never below one
  /// surviving node), on a schedule independent of the cluster's own RNG
  /// stream. The cluster's only node-failure model.
  double crash_rate = 0.0;
  int crash_nodes = 1;

  /// Realized workload is multiplied by `spike_multiplier` for the step.
  double spike_rate = 0.0;
  double spike_multiplier = 2.0;

  /// Forecaster produces no answer: the first `forecaster_timeout_attempts`
  /// planning attempts of an affected round fail before one would succeed.
  double forecaster_timeout_rate = 0.0;
  int forecaster_timeout_attempts = 2;

  /// Forecaster emits non-finite values; detected by plan validation and
  /// costs one failed attempt of the affected planning round.
  double forecaster_nan_rate = 0.0;

  /// Forecaster serves its previous (cached) forecast instead of a fresh
  /// one; the round silently reuses the last known-good plan.
  double stale_forecast_rate = 0.0;

  /// Stream-ingest producer stall: a firing at step s stalls ingestion for
  /// steps s .. s + ingest_stall_steps - 1 (points queue at the producer);
  /// the first clear step flushes the queue as a burst append. Only
  /// consulted by streaming consumers (a core::TenantSession with an ingest
  /// ring); not part of Uniform() so existing composite-fault schedules
  /// keep their exact event counts.
  double ingest_stall_rate = 0.0;
  int ingest_stall_steps = 2;

  uint64_t seed = 1234;

  /// True if any fault can ever fire.
  bool Any() const;

  /// Convenience: a composite plan with every rate set to `rate` (delay,
  /// partial, crash, spike, timeout, NaN, stale), default magnitudes.
  static FaultPlan Uniform(double rate, uint64_t seed);
};

/// Faults active at one step, as resolved by the injector.
struct StepFaults {
  bool actuation_delayed = false;
  double partial_fraction = 1.0;     ///< < 1 only when a partial fault fires
  int crash_nodes = 0;
  double workload_multiplier = 1.0;
  int forecaster_timeout_attempts = 0;
  bool forecaster_nan = false;
  bool stale_forecast = false;
  bool ingest_stalled = false;

  /// True if any field deviates from the no-fault default.
  bool Any() const;
};

/// Resolves a FaultPlan into per-step faults. FaultsForStep is a pure
/// function of (plan, step): the same step always yields the same faults
/// regardless of query order, thread count, or how many other steps were
/// queried — each fault type draws from its own DeriveSeed-derived stream,
/// so schedules for different types are independent.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  StepFaults FaultsForStep(size_t step) const;

 private:
  bool Fires(uint64_t salt, size_t step, double rate) const;

  FaultPlan plan_;
};

}  // namespace rpas::simdb

#endif  // RPAS_SIMDB_FAULTS_H_
