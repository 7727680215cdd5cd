#include "serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/scaling_config.h"
#include "core/strategies.h"
#include "core/tenant_session.h"
#include "obs/span.h"
#include "simdb/cluster.h"

namespace rpas::serve {
namespace {

// Seed-stream salts for the independent per-tenant randomness sources.
constexpr uint64_t kTraceStream = 0x51AE;
constexpr uint64_t kClusterStream = 0xC105;
constexpr uint64_t kFaultStream = 0xFA17;
constexpr uint64_t kRequestStream = 0x5EED;

/// One serving shard: its own inference engine, plus its own model
/// registry when the fleet provides a factory. Tenant state itself is
/// partitioned by the shard map, so everything a shard touches while it
/// prepares or simulates a round is disjoint from every other shard —
/// those phases fan shards across the thread pool with no locking beyond
/// the metrics sink's atomics.
struct Shard {
  std::unique_ptr<ModelRegistry> owned_registry;  ///< null = shares main
  ModelRegistry* registry = nullptr;
  std::unique_ptr<BatchEngine> engine;
};

/// One shard's serving slate for a round: the admitted requests in
/// admitted order, the engine's version groups (batched mode) and the
/// responses, which work items fill in place.
struct ShardSlate {
  std::vector<ForecastRequest> requests;
  std::vector<BatchEngine::Group> groups;
  std::vector<ForecastResponse> responses;
};

/// One entry of a round's pool-wide work list: requests [begin, end) of
/// one shard's slate. In batched mode the range indexes version group
/// `group`'s requests; otherwise it indexes the slate itself. Items write
/// disjoint responses and serve disjoint tenants.
struct WorkItem {
  size_t shard = 0;
  size_t group = 0;
  size_t begin = 0;
  size_t end = 0;
};

/// Largest batched work item, in requests. A group of n requests becomes
/// ceil(n / 8) near-equal items: the cut depends on n alone — never on the
/// thread count — and bounds each PredictBatch call's working set (DeepAR
/// keeps about 1.7 KB of roll state per sample row) to a few hundred KB.
constexpr size_t kMaxItemRequests = 8;

void AccumulateCacheStats(const ModelRegistry::CacheStats& from,
                          ModelRegistry::CacheStats* into) {
  into->hits += from.hits;
  into->misses += from.misses;
  into->evictions += from.evictions;
  into->loads += from.loads;
  into->resident_bytes += from.resident_bytes;
  into->resident_models += from.resident_models;
  into->mapped_bytes += from.mapped_bytes;
  into->heap_bytes += from.heap_bytes;
  into->charged_bytes += from.charged_bytes;
  into->pinned_models += from.pinned_models;
  into->pinned_bytes += from.pinned_bytes;
}

}  // namespace

size_t ShardOfTenant(uint64_t tenant_id, size_t num_shards) {
  if (num_shards <= 1) {
    return 0;
  }
  // SplitMix64 finalizer: avalanches the id so consecutive tenants spread
  // across shards instead of striping, and the assignment depends on
  // nothing but (id, num_shards).
  uint64_t x = tenant_id + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<size_t>(x % num_shards);
}

Result<FleetResult> RunFleet(ModelRegistry* registry,
                             const std::vector<ModelId>& models,
                             const FleetOptions& options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("fleet needs a model registry");
  }
  if (models.empty()) {
    return Status::InvalidArgument("fleet needs at least one model version");
  }
  if (options.num_tenants == 0 || options.num_steps == 0) {
    return Status::InvalidArgument("fleet needs tenants and steps");
  }
  if (options.replan_every == 0) {
    return Status::InvalidArgument("replan_every must be at least 1");
  }
  // Numeric options are checked before any setup: past this point each
  // would trip a component's RPAS_CHECK (allocator, tenant cluster,
  // admission controller) and abort the process.
  auto finite_positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  if (!(options.tau > 0.0 && options.tau < 1.0)) {
    return Status::InvalidArgument("tau must be in (0, 1)");
  }
  if (!finite_positive(options.theta_divisor)) {
    return Status::InvalidArgument(
        "theta_divisor must be finite and positive");
  }
  if (!finite_positive(options.admission.bucket_capacity)) {
    return Status::InvalidArgument(
        "admission.bucket_capacity must be finite and positive");
  }
  if (!finite_positive(options.admission.cost_per_request)) {
    return Status::InvalidArgument(
        "admission.cost_per_request must be finite and positive");
  }
  if (!(std::isfinite(options.admission.refill_per_round) &&
        options.admission.refill_per_round >= 0.0)) {
    return Status::InvalidArgument(
        "admission.refill_per_round must be finite and non-negative");
  }
  const bool selecting = options.selection.enabled;
  const bool incremental =
      options.refresh_mode == core::RefreshMode::kIncremental;
  const bool engine_batched = !incremental && options.batched;
  if (selecting && options.selection.ladder.empty()) {
    return Status::InvalidArgument(
        "fleet selection needs a non-empty model ladder");
  }
  if (incremental && options.refresh_model_factory == nullptr) {
    return Status::InvalidArgument(
        "incremental refresh mode needs a refresh_model_factory");
  }

  // Phase spans (fleet.setup, fleet.round and its phases, fleet.finish)
  // are recorded on the calling thread into the global trace buffer.
  std::optional<obs::Span> setup_span(std::in_place, "fleet.setup");

  // Warm-up pass: verify every referenced version loads and note its
  // context length (the request window size). One Acquire per listed
  // model; these land in the cache stats as the setup cost of the fleet.
  auto context_lengths =
      [&](const std::vector<ModelId>& ids) -> Result<std::vector<size_t>> {
    std::vector<size_t> context(ids.size(), 0);
    for (size_t m = 0; m < ids.size(); ++m) {
      RPAS_ASSIGN_OR_RETURN(std::shared_ptr<const forecast::Forecaster> fc,
                            registry->Acquire(ids[m]));
      context[m] = fc->ContextLength();
      if (context[m] > options.history_steps) {
        return Status::InvalidArgument(StrFormat(
            "%s: context length %zu exceeds history_steps %zu",
            ids[m].ToString().c_str(), context[m], options.history_steps));
      }
    }
    return context;
  };
  RPAS_ASSIGN_OR_RETURN(const std::vector<size_t> model_context,
                        context_lengths(models));
  const std::vector<ModelId>& ladder = options.selection.ladder;
  RPAS_ASSIGN_OR_RETURN(const std::vector<size_t> ladder_context,
                        context_lengths(ladder));

  // Shard topology: stable-hash tenant assignment, per-shard serving tier.
  const size_t num_shards = std::max<size_t>(options.num_shards, 1);
  std::vector<size_t> shard_of(options.num_tenants);
  std::vector<std::vector<size_t>> shard_tenants(num_shards);
  for (size_t t = 0; t < options.num_tenants; ++t) {
    shard_of[t] = ShardOfTenant(t, num_shards);
    shard_tenants[shard_of[t]].push_back(t);
  }

  AdmissionController::Options admission_options = options.admission;
  admission_options.metrics = options.metrics;
  AdmissionController admission(admission_options, options.num_tenants);
  BatchEngine::Options engine_options;
  engine_options.batch_across_tenants = options.batched;
  engine_options.metrics = options.metrics;

  std::vector<Shard> shards(num_shards);
  for (Shard& shard : shards) {
    if (options.shard_registry_factory != nullptr) {
      shard.owned_registry = options.shard_registry_factory();
      if (shard.owned_registry == nullptr) {
        return Status::InvalidArgument(
            "shard_registry_factory returned null");
      }
    }
    shard.registry =
        shard.owned_registry != nullptr ? shard.owned_registry.get()
                                        : registry;
    shard.engine =
        std::make_unique<BatchEngine>(shard.registry, engine_options);
  }

  // Per-tenant setup: independent synthetic workload, a cluster sized so
  // the trace's swings move the node count, and an independent fault
  // schedule. Every seed derives from the *global* tenant id, so the
  // tenant's trajectory is independent of the shard topology. Setup is
  // embarrassingly parallel across tenants.
  const size_t num_tenants = options.num_tenants;
  std::vector<ts::TimeSeries> series(num_tenants);
  std::vector<std::unique_ptr<forecast::Forecaster>> refresh_models(
      incremental ? num_tenants : 0);
  std::vector<std::unique_ptr<core::TenantSession>> sessions(num_tenants);
  std::vector<Status> setup_status(num_tenants);
  obs::MetricsRegistry* metrics = obs::ResolveRegistry(options.metrics);
  // Resolve the simdb.* instrument bundle once for the whole fleet: the
  // parallel setup below constructs one cluster per tenant, and without a
  // shared bundle every construction would take the metrics registry's
  // name-lookup mutex seven times — a cross-tenant serialization point.
  const simdb::Cluster::MetricHandles cluster_handles =
      simdb::Cluster::MetricHandles::Resolve(metrics);
  // Observed once per tenant-step inside the parallel shard phase.
  obs::Histogram* staleness_hist =
      metrics->GetHistogram("serve.stream.staleness_steps");
  ParallelFor(0, num_tenants, 1, [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      trace::SyntheticTraceGenerator generator(
          options.profile, DeriveSeed(options.seed, kTraceStream + t));
      series[t] =
          generator.GenerateCpu(options.history_steps + options.num_steps);
      const ts::TimeSeries history = series[t].Slice(0, options.history_steps);

      core::TenantSession::Options session;
      session.scaling.theta =
          std::max(history.Mean() / options.theta_divisor, 1e-9);
      session.cluster.node_capacity = session.scaling.theta;
      session.cluster.seed = DeriveSeed(options.seed, kClusterStream + t);
      session.cluster.metrics = options.metrics;
      session.cluster.handles = &cluster_handles;
      session.cluster.initial_nodes =
          core::RequiredNodes(history.values.back(), session.scaling);
      if (options.faults.Any()) {
        session.faults = options.faults;
        session.faults.seed = DeriveSeed(options.faults.seed, kFaultStream + t);
      }
      session.degradation = options.degradation;
      session.ring_capacity = options.stream_ring_capacity > 0
                                  ? options.stream_ring_capacity
                                  : 2 * options.replan_every;
      session.staleness = staleness_hist;
      if (selecting) {
        session.ladder_size = ladder.size();
        session.classifier = options.selection.classifier;
        session.selector = options.selection.selector;
        session.prescale = options.selection.prescale;
        session.prescaler = options.selection.prescaler;
      }
      if (incremental) {
        // Private per-tenant forecaster, fitted on the tenant's own
        // history — the state the session's refresher keeps current.
        refresh_models[t] =
            options.refresh_model_factory(models[t % models.size()]);
        if (refresh_models[t] == nullptr) {
          setup_status[t] =
              Status::InvalidArgument("refresh_model_factory returned null");
          continue;
        }
        setup_status[t] = refresh_models[t]->Fit(history);
        if (!setup_status[t].ok()) {
          continue;
        }
        session.refresh_target = refresh_models[t].get();
        session.refresher = options.refresher;
      }
      auto created = core::TenantSession::Create(
          series[t], options.history_steps, std::move(session));
      if (created.ok()) {
        sessions[t] = std::move(created).value();
      } else {
        setup_status[t] = created.status();
      }
    }
  });
  for (Status& status : setup_status) {
    if (!status.ok()) {
      return std::move(status);
    }
  }
  setup_span.reset();

  // A tenant's model is its current ladder tier under selection, else the
  // round-robin `models[t % models]` assignment.
  auto model_index = [&](size_t t) {
    return selecting ? sessions[t]->tier() : t % models.size();
  };
  const std::vector<ModelId>& served = selecting ? ladder : models;
  const std::vector<size_t>& served_context =
      selecting ? ladder_context : model_context;
  const core::RobustQuantileAllocator allocator(options.tau);

  FleetResult result;
  result.tenants.resize(num_tenants);
  std::vector<std::vector<obs::ScalingDecision>> round_decisions(
      options.collect_decisions ? num_tenants : 0);

  for (size_t step = 0; step < options.num_steps;
       step += options.replan_every) {
    const size_t round = step / options.replan_every;
    obs::Span round_span("fleet.round", static_cast<int64_t>(round));
    // The round's phases; emplacing the next one ends the previous one.
    std::optional<obs::Span> phase;
    ++result.rounds;
    phase.emplace("fleet.open");
    admission.BeginRound();

    // Phase 1: every session opens its round. Injected forecaster faults
    // settle first — a tenant whose forecaster is down does not compete
    // for the round's inference budget — and the selector picks the
    // round's model. Per-tenant work; shards fan out.
    ParallelFor(0, num_shards, 1, [&](size_t s0, size_t s1) {
      for (size_t s = s0; s < s1; ++s) {
        for (size_t t : shard_tenants[s]) {
          sessions[t]->BeginRound(step);
        }
      }
    });

    // Phase 2: admission, once for the whole fleet over the requesting
    // tenants in ascending id order.
    phase.emplace("fleet.admission");
    std::vector<uint64_t> requesting;
    for (size_t t = 0; t < num_tenants; ++t) {
      if (sessions[t]->awaiting_plan()) {
        requesting.push_back(t);
      }
    }
    result.requests_submitted += requesting.size();
    const std::vector<AdmissionVerdict> verdicts =
        admission.AdmitRound(requesting);

    // Throttled and shed tenants degrade to the reactive fallback — their
    // round is served, just not with a fresh forecast.
    std::vector<std::vector<size_t>> shard_admitted(num_shards);
    for (size_t i = 0; i < requesting.size(); ++i) {
      const size_t t = requesting[i];
      switch (verdicts[i]) {
        case AdmissionVerdict::kAdmitted:
          ++result.requests_admitted;
          shard_admitted[shard_of[t]].push_back(t);
          break;
        case AdmissionVerdict::kThrottled:
          ++result.requests_throttled;
          sessions[t]->Degrade(core::DegradeCause::kThrottled);
          break;
        case AdmissionVerdict::kDeadlineShed:
          ++result.requests_shed;
          sessions[t]->Degrade(core::DegradeCause::kDeadlineShed);
          break;
      }
    }

    // Phase 3: serve the admitted requests. First, per shard: drain each
    // tenant's stream and, in kIncremental mode, fold it into the tenant's
    // private forecaster *before* serving, so admitted requests run
    // against a model that has seen everything realized so far (a refresh
    // error degrades the tenant's round, never the fleet). Then build the
    // shard's slate in admitted order and, in batched mode, group it by
    // version and acquire each version from the shard's registry. The
    // groups hold their models until every work item has finished.
    phase.emplace("fleet.prepare");
    std::vector<ShardSlate> slates(num_shards);
    ParallelFor(0, num_shards, 1, [&](size_t s0, size_t s1) {
      for (size_t s = s0; s < s1; ++s) {
        for (size_t t : shard_tenants[s]) {
          if (!sessions[t]->Refresh(step).ok() &&
              sessions[t]->awaiting_plan()) {
            sessions[t]->Degrade(core::DegradeCause::kRefreshError);
          }
        }
        ShardSlate& slate = slates[s];
        slate.requests.reserve(shard_admitted[s].size());
        for (size_t t : shard_admitted[s]) {
          if (!sessions[t]->awaiting_plan()) {
            continue;  // refresh error already degraded this round
          }
          const size_t context = served_context[model_index(t)];
          const size_t end = sessions[t]->ObservedEnd();
          ForecastRequest request;
          request.tenant_id = t;
          request.model = served[model_index(t)];
          request.input =
              forecast::ForecastInput::Window(series[t], end, context);
          request.seed =
              DeriveSeed(DeriveSeed(options.seed, kRequestStream + t), round);
          slate.requests.push_back(std::move(request));
        }
        slate.responses.resize(slate.requests.size());
        if (engine_batched) {
          slate.groups = shards[s].engine->Prepare(slate.requests);
        }
      }
    });

    // Then one pool-wide work list over every shard's slate (see WorkItem),
    // so the pool balances the round item by item instead of waiting on
    // the slowest shard. Each item serves its requests — a slice through
    // the shard's engine, or the tenant's refreshed private forecaster in
    // kIncremental mode (same request seed) — then plans and installs its
    // own tenants. Any per-request error degrades that tenant to the
    // fallback, never the round.
    phase.emplace("fleet.serve");
    std::vector<WorkItem> items;
    for (size_t s = 0; s < num_shards; ++s) {
      const ShardSlate& slate = slates[s];
      if (engine_batched) {
        for (size_t g = 0; g < slate.groups.size(); ++g) {
          const size_t n = slate.groups[g].indices.size();
          const size_t pieces = (n + kMaxItemRequests - 1) / kMaxItemRequests;
          for (size_t p = 0; p < pieces; ++p) {
            items.push_back({s, g, n * p / pieces, n * (p + 1) / pieces});
          }
        }
      } else if (incremental) {
        for (size_t k = 0; k < slate.requests.size(); ++k) {
          items.push_back({s, 0, k, k + 1});
        }
      } else if (!slate.requests.empty()) {
        // Unbatched: the whole slate, so every request acquires its model
        // in arrival order — the per-request baseline this mode measures.
        items.push_back({s, 0, 0, slate.requests.size()});
      }
    }
    ParallelFor(0, items.size(), 1, [&](size_t i0, size_t i1) {
      for (size_t i = i0; i < i1; ++i) {
        const WorkItem& item = items[i];
        ShardSlate& slate = slates[item.shard];
        if (engine_batched) {
          shards[item.shard].engine->RunSlice(slate.groups[item.group],
                                              slate.requests, item.begin,
                                              item.end, &slate.responses);
        } else if (incremental) {
          const ForecastRequest& request = slate.requests[item.begin];
          auto forecast_or =
              refresh_models[request.tenant_id]->PredictSeeded(
                  request.input, request.seed);
          if (forecast_or.ok()) {
            slate.responses[item.begin].forecast = std::move(*forecast_or);
          } else {
            slate.responses[item.begin].status = forecast_or.status();
          }
        } else {
          slate.responses = shards[item.shard].engine->Execute(slate.requests);
        }
        for (size_t j = item.begin; j < item.end; ++j) {
          const size_t k =
              engine_batched ? slate.groups[item.group].indices[j] : j;
          core::TenantSession& session =
              *sessions[slate.requests[k].tenant_id];
          ForecastResponse& response = slate.responses[k];
          Status installed = response.status;
          if (installed.ok()) {
            Result<std::vector<int>> plan =
                allocator.Allocate(response.forecast, session.config());
            installed = plan.ok()
                            ? session.Install(std::move(plan).value(),
                                              std::move(response.forecast))
                            : plan.status();
          }
          if (!installed.ok()) {
            session.Degrade(core::DegradeCause::kPlannerError);
          }
        }
      }
    });
    slates.clear();  // every item is done: release the round's model holds

    // Phase 4: drive each shard's clusters to the next planning round.
    // Synchronized rounds: a plan shorter than the round holds its last
    // value.
    phase.emplace("fleet.simulate");
    const size_t round_end =
        std::min(step + options.replan_every, options.num_steps);
    ParallelFor(0, num_shards, 1, [&](size_t s0, size_t s1) {
      for (size_t s = s0; s < s1; ++s) {
        for (size_t t : shard_tenants[s]) {
          for (size_t st = step; st < round_end; ++st) {
            const simdb::StepStats stats = sessions[t]->Step(st);
            if (options.collect_decisions) {
              round_decisions[t].push_back(core::MakeScalingDecision(
                  stats, StrFormat("tenant%zu", t)));
            }
          }
        }
      }
    });

    // Merge the round's decision records in the legacy order (tenant
    // ascending, step ascending) regardless of which thread ran which
    // shard, keeping the export stream deterministic.
    if (options.collect_decisions) {
      for (size_t t = 0; t < options.num_tenants; ++t) {
        for (obs::ScalingDecision& decision : round_decisions[t]) {
          result.decisions.push_back(std::move(decision));
        }
        round_decisions[t].clear();
      }
    }
  }

  // Final accounting.
  obs::Span finish_span("fleet.finish");
  select::SelectorStats selector;
  select::PreScalerStats prescaler;
  for (size_t t = 0; t < num_tenants; ++t) {
    const core::TenantSession::Summary s = sessions[t]->Finish();
    auto by_cause = [&s](core::DegradeCause cause) {
      return s.fallbacks_by_cause[static_cast<size_t>(cause)];
    };
    TenantSummary& tenant = result.tenants[t];
    tenant.tenant_id = t;
    tenant.model = served[model_index(t)];
    tenant.under_provision_rate = s.under_provision_rate;
    tenant.over_provision_rate = s.over_provision_rate;
    tenant.mean_utilization = s.mean_utilization;
    tenant.slo_violation_rate = s.slo_violation_rate;
    tenant.rounds = s.rounds;
    tenant.fresh_rounds = s.rounds - s.stale_rounds - s.fallback_rounds;
    tenant.stale_rounds = s.stale_rounds;
    tenant.fallback_rounds = s.fallback_rounds;
    tenant.shed_rounds = by_cause(core::DegradeCause::kDeadlineShed);
    tenant.throttled_rounds = by_cause(core::DegradeCause::kThrottled);
    tenant.fault_rounds = by_cause(core::DegradeCause::kForecasterFault);
    tenant.error_rounds = by_cause(core::DegradeCause::kPlannerError) +
                          by_cause(core::DegradeCause::kRefreshError);
    tenant.faulted_steps = s.faulted_steps;
    tenant.stream_points = s.points_delivered;
    tenant.stream_dropped = s.points_dropped;
    tenant.mean_staleness_steps = s.mean_staleness;
    tenant.max_staleness_steps = s.max_staleness;
    tenant.mean_model_staleness_steps = s.mean_model_staleness;
    tenant.max_model_staleness_steps = s.max_model_staleness;
    if (selecting) {
      tenant.final_tier = s.final_tier;
      tenant.pattern = s.pattern;
      tenant.selector = s.selector;
      tenant.prescale = s.prescaler;
      selector.rounds += s.selector.rounds;
      selector.switches += s.selector.switches;
      selector.promotions += s.selector.promotions;
      selector.probe_demotions += s.selector.probe_demotions;
      selector.fault_demotions += s.selector.fault_demotions;
      selector.drift_demotions += s.selector.drift_demotions;
      prescaler.plans_observed += s.prescaler.plans_observed;
      prescaler.spikes_detected += s.prescaler.spikes_detected;
      prescaler.activations += s.prescaler.activations;
      prescaler.rollbacks += s.prescaler.rollbacks;
      prescaler.timeout_rollbacks += s.prescaler.timeout_rollbacks;
      prescaler.floor_raised_steps += s.prescaler.floor_raised_steps;
    }
    result.refresh.refreshes += s.refresh.refreshes;
    result.refresh.points_consumed += s.refresh.points_consumed;
    result.refresh.recursive_updates += s.refresh.recursive_updates;
    result.refresh.fine_tunes += s.refresh.fine_tunes;
    result.refresh.gradient_steps += s.refresh.gradient_steps;
    result.refresh.resyncs += s.refresh.resyncs;
    result.refresh.full_retrains += s.refresh.full_retrains;
    result.mean_model_staleness_steps += tenant.mean_model_staleness_steps;
    result.max_model_staleness_steps = std::max(
        result.max_model_staleness_steps, tenant.max_model_staleness_steps);
    result.mean_under_provision_rate += tenant.under_provision_rate;
    result.mean_over_provision_rate += tenant.over_provision_rate;
    result.mean_utilization += tenant.mean_utilization;
    result.mean_slo_violation_rate += tenant.slo_violation_rate;
    result.stream_points += tenant.stream_points;
    result.stream_dropped += tenant.stream_dropped;
    result.mean_staleness_steps += tenant.mean_staleness_steps;
    result.max_staleness_steps =
        std::max(result.max_staleness_steps, tenant.max_staleness_steps);
  }
  const double n = static_cast<double>(num_tenants);
  result.mean_under_provision_rate /= n;
  result.mean_over_provision_rate /= n;
  result.mean_utilization /= n;
  result.mean_slo_violation_rate /= n;
  result.mean_staleness_steps /= n;
  result.mean_model_staleness_steps /= n;
  result.tier_switches = selector.switches;
  result.tier_promotions = selector.promotions;
  result.tier_demotions = selector.probe_demotions +
                          selector.fault_demotions + selector.drift_demotions;
  result.prescale_activations = prescaler.activations;
  result.prescale_rollbacks = prescaler.rollbacks;
  result.prescale_floor_raised_steps = prescaler.floor_raised_steps;
  // The counters mirror the finished totals, so registry values agree
  // exactly with the result fields.
  core::IncrementControlCounters(metrics,
                                 incremental ? &result.refresh : nullptr,
                                 selecting ? &selector : nullptr,
                                 selecting ? &prescaler : nullptr);
  result.cache = registry->GetCacheStats();
  for (const Shard& shard : shards) {
    if (shard.owned_registry != nullptr) {
      AccumulateCacheStats(shard.owned_registry->GetCacheStats(),
                           &result.cache);
    }
  }
  return result;
}

}  // namespace rpas::serve
