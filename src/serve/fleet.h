#ifndef RPAS_SERVE_FLEET_H_
#define RPAS_SERVE_FLEET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/online_loop.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/batching.h"
#include "serve/registry.h"
#include "simdb/faults.h"
#include "trace/generator.h"

namespace rpas::serve {

/// Per-tenant outcome of a fleet run.
struct TenantSummary {
  uint64_t tenant_id = 0;
  ModelId model;
  /// Provisioning quality against realized workload (paper §IV-C metrics).
  double under_provision_rate = 0.0;
  double over_provision_rate = 0.0;
  double mean_utilization = 0.0;
  double slo_violation_rate = 0.0;
  /// Planning-round accounting. Every round is served: rounds ==
  /// fresh_rounds + stale_rounds + fallback_rounds.
  size_t rounds = 0;
  size_t fresh_rounds = 0;     ///< fresh forecast from the engine
  size_t stale_rounds = 0;     ///< injected stale fault: replayed last plan
  size_t fallback_rounds = 0;  ///< reactive fallback (any cause below)
  size_t shed_rounds = 0;      ///< deadline-shed by admission control
  size_t throttled_rounds = 0; ///< token bucket exhausted
  size_t fault_rounds = 0;     ///< forecaster fault outlasted retries
  size_t error_rounds = 0;     ///< engine/allocator returned an error
  size_t faulted_steps = 0;    ///< simulated steps with an active fault
  /// Streaming-ingest accounting: every realized workload observation is
  /// pushed through a per-tenant stream::IngestRing and drained by a
  /// cursor once per planning round, mirroring the per-tenant ingestion
  /// path of the streaming online loop (DESIGN.md §12).
  uint64_t stream_points = 0;   ///< points drained through the cursor
  /// Points overwritten before the cursor could read them (the cursor's
  /// missed count — stream_points + stream_dropped == points pushed).
  uint64_t stream_dropped = 0;
  /// Forecast staleness: per-step age (in steps) of the tenant's newest
  /// fresh forecast — 0 on steps covered by the round a fresh plan landed
  /// in, growing under stale/fallback rounds.
  double mean_staleness_steps = 0.0;
  uint64_t max_staleness_steps = 0;
  /// Model staleness: per-round age (in steps) of the serving model's
  /// fitted state. In kBatch mode the registry model never folds realized
  /// points, so staleness grows by replan_every per round; in kIncremental
  /// mode the tenant's private forecaster is refreshed at the top of every
  /// round, pinning this to 0.
  double mean_model_staleness_steps = 0.0;
  uint64_t max_model_staleness_steps = 0;
  /// Adaptive selection outcome (zeros when selection is disabled).
  size_t final_tier = 0;
  select::WorkloadPattern pattern = select::WorkloadPattern::kInsufficient;
  select::SelectorStats selector;
  select::PreScalerStats prescale;
};

/// Aggregate outcome of a fleet run.
struct FleetResult {
  std::vector<TenantSummary> tenants;
  size_t rounds = 0;  ///< planning rounds executed (shared by all tenants)
  size_t requests_submitted = 0;  ///< fresh-forecast requests made
  size_t requests_admitted = 0;
  size_t requests_throttled = 0;
  size_t requests_shed = 0;
  /// Tenant means of the per-tenant rates.
  double mean_under_provision_rate = 0.0;
  double mean_over_provision_rate = 0.0;
  double mean_utilization = 0.0;
  double mean_slo_violation_rate = 0.0;
  /// Fleet-wide streaming-ingest totals (sums over tenants) and forecast
  /// staleness (mean of tenant means / max of tenant maxima); mirrored
  /// into the "serve.stream.staleness_steps" histogram.
  uint64_t stream_points = 0;
  uint64_t stream_dropped = 0;
  double mean_staleness_steps = 0.0;
  uint64_t max_staleness_steps = 0;
  /// Model staleness (mean of tenant means / max of tenant maxima) and
  /// per-tenant refresher totals; zeros in kBatch mode.
  double mean_model_staleness_steps = 0.0;
  uint64_t max_model_staleness_steps = 0;
  stream::RefreshStats refresh;
  /// Fleet-wide adaptive-selection totals (sums over tenants; zeros when
  /// selection is disabled); the full sums are mirrored into the select.*
  /// counters (core::IncrementControlCounters).
  uint64_t tier_switches = 0;
  uint64_t tier_promotions = 0;
  uint64_t tier_demotions = 0;
  uint64_t prescale_activations = 0;
  uint64_t prescale_rollbacks = 0;
  uint64_t prescale_floor_raised_steps = 0;
  /// Registry cache effectiveness over the whole run (includes the warm-up
  /// Acquire() per distinct model at fleet setup). With per-shard
  /// registries this sums every registry the run touched, so loads/misses
  /// grow with the shard count even though serving results do not.
  ModelRegistry::CacheStats cache;
  /// Per-step records for the structured exporters (schema rpas_obs.v1);
  /// filled when FleetOptions::collect_decisions is set, run label
  /// "tenant<id>".
  std::vector<obs::ScalingDecision> decisions;
};

/// Configuration of a multi-tenant fleet serving run.
struct FleetOptions {
  size_t num_tenants = 8;
  /// Simulated scaling steps per tenant.
  size_t num_steps = 144;
  /// Observed history available before serving starts; must cover every
  /// model's context length.
  size_t history_steps = 96;
  /// Steps between planning rounds (every tenant replans each round).
  size_t replan_every = 6;
  uint64_t seed = 42;
  /// Workload shape; per-tenant traces draw tenant-derived seeds from it.
  trace::TraceProfile profile = trace::AlibabaProfile();
  /// Robust allocation quantile (paper Definition 4).
  double tau = 0.95;
  /// Per-tenant capacity threshold theta = mean(history) / theta_divisor,
  /// sizing each cluster so workload swings move the node count.
  double theta_divisor = 4.0;
  core::DegradationPolicy degradation;
  /// Fault schedule; each tenant runs an injector with a tenant-derived
  /// seed, so faults are independent across tenants. Inert by default.
  simdb::FaultPlan faults;
  AdmissionController::Options admission;
  /// Serve rounds through cross-tenant batching (BatchEngine); false runs
  /// the per-request baseline. The FleetResult is bit-identical either
  /// way — batching changes cost, never answers.
  bool batched = true;
  bool collect_decisions = false;
  /// Metrics sink threaded through registry consumers created by the run
  /// (engine, admission, clusters); null routes to the global registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Serving shards. Tenants are assigned to shards by a stable hash of
  /// their id; each shard owns a BatchEngine (and a ModelRegistry when
  /// `shard_registry_factory` is set). Shards prepare (group and acquire)
  /// and simulate a round in parallel on the RpasThreads() pool; in
  /// between, every shard's requests are served from one pool-wide work
  /// list of items of at most 8 requests, so a round does not wait on its
  /// slowest shard. 0 is treated as 1 (the unsharded single-tier fleet).
  /// Admission is not sharded: one AdmissionController decides every
  /// round for the whole fleet, so the FleetResult is bit-identical across
  /// every (num_shards, thread count) combination — sharding changes
  /// scheduling, never verdicts (see DESIGN.md §9).
  size_t num_shards = 1;
  /// Capacity (points) of each tenant's streaming ingest ring. Realized
  /// workload observations are pushed per step and drained once per
  /// planning round; 0 sizes the ring at 2 * replan_every, which is always
  /// drop-free when every round drains. Smaller capacities exercise the
  /// drop-oldest path and show up in TenantSummary::stream_dropped.
  size_t stream_ring_capacity = 0;
  /// Per-tenant adaptive model selection over a cost-ordered ladder of
  /// registered versions. Disabled leaves RunFleet bit-identical to the
  /// pre-selection fleet; enabled replaces the round-robin
  /// `models[t % models]` assignment with the tenant's current ladder tier.
  /// The selector consumes only the tenant's observed wQL/fault sequence —
  /// no RNG — so enabling it perturbs no seeded schedule: request seeds,
  /// admission verdicts, and fault draws are unchanged.
  struct SelectionOptions {
    bool enabled = false;
    /// Ladder of registered versions, cheapest first (e.g. seasonal-naive
    /// -> ARIMA -> MLP -> DeepAR). Required non-empty when enabled; every
    /// entry's context length must fit history_steps.
    std::vector<ModelId> ladder;
    select::ClassifierOptions classifier;
    /// `selector.ladder_size` is overwritten with `ladder.size()`.
    select::SelectorOptions selector;
    /// TRUE pre-scaling: raise each tenant's capacity floor ahead of a
    /// predicted spike, auto-rollback after peak or timeout.
    bool prescale = true;
    select::PreScalerOptions prescaler;
  };
  SelectionOptions selection;
  /// How tenants' serving models track realized workload. kBatch serves
  /// every round from the (frozen) registry version — bit-identical to the
  /// pre-streaming fleet. kIncremental gives each tenant a private
  /// forecaster built by `refresh_model_factory`, fitted on the tenant's
  /// own history, refreshed from its ingest ring at the top of every round
  /// via a stream::IncrementalRefresher, and served directly (bypassing the
  /// BatchEngine — per-tenant state cannot be cross-tenant batched).
  /// Cannot be combined with selection (the refresher tracks one model).
  core::RefreshMode refresh_mode = core::RefreshMode::kBatch;
  /// Builds an unfitted forecaster configured like the registered version.
  /// Required (non-null) in kIncremental mode.
  std::function<std::unique_ptr<forecast::Forecaster>(const ModelId&)>
      refresh_model_factory;
  stream::RefresherOptions refresher;
  /// Builds one model registry per shard with every referenced version
  /// registered against the same checkpoints as the registry passed to
  /// RunFleet. When null, all shards share that registry, whose one mutex
  /// every Acquire takes, cold loads included — so cold loads of different
  /// versions serialize across shards. Per-shard registries each load
  /// their own copy of a version, so loads and resident bytes grow with
  /// the shard count.
  /// FleetResult::cache aggregates over every registry the run touched.
  std::function<std::unique_ptr<ModelRegistry>()> shard_registry_factory;
};

/// Stable tenant→shard assignment (SplitMix64 finalizer on the id). Pure
/// and platform-independent, so a tenant's shard — and with it the
/// composition of every per-shard cache — never changes across runs.
size_t ShardOfTenant(uint64_t tenant_id, size_t num_shards);

/// Steps `num_tenants` simulated database clusters through the online
/// scaling loop against a shared serving tier: each planning round, every
/// tenant requests a fresh quantile forecast for its own synthetic
/// workload from its assigned model version (`models[tenant % models]`),
/// the admission controller applies rate limits and the round's deadline
/// budget, admitted requests run through the batch engine, and each
/// tenant's RobustQuantileAllocator plan drives its cluster until the next
/// round. Each tenant is one core::TenantSession; rounds are synchronized,
/// so a plan shorter than the round holds its last value. Tenants that
/// are throttled, shed, or hit by an injected forecaster fault degrade to
/// the session's reactive fallback plan — a tenant's round is never
/// dropped and the fleet never aborts on a fault.
///
/// Determinism: the result is a pure function of `options` and the
/// registered model weights — independent of thread count and of
/// `options.batched` (see BatchEngine's contract).
///
/// Tracing: the calling thread records `fleet.setup`, one `fleet.round`
/// per round (tag = round index) around its phases `fleet.open`,
/// `fleet.admission`, `fleet.prepare`, `fleet.serve` and `fleet.simulate`,
/// and `fleet.finish` into obs::TraceBuffer::Global(); a disabled buffer
/// costs one relaxed load per span.
Result<FleetResult> RunFleet(ModelRegistry* registry,
                             const std::vector<ModelId>& models,
                             const FleetOptions& options);

}  // namespace rpas::serve

#endif  // RPAS_SERVE_FLEET_H_
