#include "serve/fleet.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/scaling_config.h"
#include "core/strategies.h"
#include "core/tenant_session.h"
#include "simdb/cluster.h"

namespace rpas::serve {
namespace {

// Seed-stream salts for the independent per-tenant randomness sources.
constexpr uint64_t kTraceStream = 0x51AE;
constexpr uint64_t kClusterStream = 0xC105;
constexpr uint64_t kFaultStream = 0xFA17;
constexpr uint64_t kRequestStream = 0x5EED;

/// One serving shard: its own inference engine and admission controller,
/// plus its own model registry when the fleet provides a factory. Tenant
/// state itself is partitioned by the shard map, so everything a shard
/// touches during a round is disjoint from every other shard — rounds fan
/// shards across the thread pool with no locking beyond the metrics
/// sink's atomics.
struct Shard {
  std::unique_ptr<ModelRegistry> owned_registry;  ///< null = shares main
  ModelRegistry* registry = nullptr;
  std::unique_ptr<AdmissionController> admission;
  std::unique_ptr<BatchEngine> engine;
};

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
  if (options.theta_divisor <= 0.0) {
    return Status::InvalidArgument("theta_divisor must be positive");
  }
  const bool selecting = options.selection.enabled;
  const bool incremental =
      options.refresh_mode == core::RefreshMode::kIncremental;
  if (selecting && options.selection.ladder.empty()) {
    return Status::InvalidArgument(
        "fleet selection needs a non-empty model ladder");
  }
  if (incremental && options.refresh_model_factory == nullptr) {
    return Status::InvalidArgument(
        "incremental refresh mode needs a refresh_model_factory");
  }

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
    // Every shard's controller is sized to the whole fleet: token buckets
    // are indexed by global tenant id, and the deadline-shed rotation
    // period must be the fleet-wide tenant count on every shard.
    shard.admission = std::make_unique<AdmissionController>(
        admission_options, options.num_tenants);
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
  // Observed once per tenant-step inside the parallel shard phase —
  // striped, so concurrent shards write per-thread-slot cache lines
  // instead of CAS-contending on one histogram (deterministic export is
  // unchanged: integer bucket counts merge exactly).
  obs::Histogram* staleness_hist =
      metrics->GetStripedHistogram("serve.stream.staleness_steps");
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
    ++result.rounds;
    for (Shard& shard : shards) {
      shard.admission->BeginRound();
    }

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

    // The global requesting list, ascending by tenant id — the exact order
    // the unsharded fleet submits, which the deadline shed ranks against.
    std::vector<uint64_t> requesting;
    for (size_t t = 0; t < num_tenants; ++t) {
      if (sessions[t]->awaiting_plan()) {
        requesting.push_back(t);
      }
    }
    result.requests_submitted += requesting.size();

    // Phase 2: admission. Token buckets are per-tenant, so each shard
    // screens and charges its own tenants on its own controller; the
    // deadline shed runs once, globally, over the merged candidate list —
    // that split is what keeps S-shard verdicts bit-identical to one
    // controller seeing the whole fleet.
    std::vector<std::vector<uint64_t>> sub_tenants(num_shards);
    std::vector<std::vector<size_t>> sub_to_global(num_shards);
    std::vector<size_t> sub_index(requesting.size(), 0);
    for (size_t i = 0; i < requesting.size(); ++i) {
      const size_t s = shard_of[requesting[i]];
      sub_index[i] = sub_tenants[s].size();
      sub_tenants[s].push_back(requesting[i]);
      sub_to_global[s].push_back(i);
    }

    std::vector<AdmissionVerdict> verdicts(requesting.size(),
                                           AdmissionVerdict::kThrottled);
    std::vector<std::vector<AdmissionVerdict>> sub_verdicts(num_shards);
    std::vector<std::vector<size_t>> sub_candidates(num_shards);
    std::vector<size_t> global_candidates;
    for (size_t s = 0; s < num_shards; ++s) {
      shards[s].admission->TokenScreen(sub_tenants[s], &sub_verdicts[s],
                                       &sub_candidates[s]);
      for (size_t c : sub_candidates[s]) {
        global_candidates.push_back(sub_to_global[s][c]);
      }
    }
    // Ascending entry order — what one controller screening the merged
    // list would have produced.
    std::sort(global_candidates.begin(), global_candidates.end());
    AdmissionController::SelectWithinBudget(
        shards[0].admission->round(), options.num_tenants,
        admission_options.round_budget, requesting, &global_candidates,
        &verdicts);
    // Push the shed marks down to the shard-local verdict slates, commit
    // each shard (charges buckets, counts metrics), and lift the admitted
    // marks back up.
    std::vector<std::vector<size_t>> sub_survivors(num_shards);
    for (size_t i : global_candidates) {
      sub_survivors[shard_of[requesting[i]]].push_back(sub_index[i]);
    }
    for (size_t i = 0; i < requesting.size(); ++i) {
      sub_verdicts[shard_of[requesting[i]]][sub_index[i]] = verdicts[i];
    }
    for (size_t s = 0; s < num_shards; ++s) {
      shards[s].admission->Commit(sub_tenants[s], sub_survivors[s],
                                  &sub_verdicts[s]);
    }
    for (size_t i = 0; i < requesting.size(); ++i) {
      verdicts[i] = sub_verdicts[shard_of[requesting[i]]][sub_index[i]];
    }

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

    // Phases 3+4, fused per shard and fanned across the pool. ParallelFor
    // claims shard indices dynamically, so a thread that finishes a cheap
    // shard steals the next unstarted one. Everything inside is disjoint
    // per shard: requests, engine, sessions, decision buffers.
    const size_t round_end =
        std::min(step + options.replan_every, options.num_steps);
    ParallelFor(0, num_shards, 1, [&](size_t s0, size_t s1) {
      for (size_t s = s0; s < s1; ++s) {
        // Drain each tenant's stream and, in kIncremental mode, fold it
        // into the tenant's private forecaster *before* serving, so
        // admitted requests run against a model that has seen everything
        // realized so far. A refresh error degrades the tenant's round —
        // never the whole fleet.
        for (size_t t : shard_tenants[s]) {
          if (!sessions[t]->Refresh(step).ok() &&
              sessions[t]->awaiting_plan()) {
            sessions[t]->Degrade(core::DegradeCause::kRefreshError);
          }
        }

        // Phase 3: serve the admitted requests — through the shard's
        // engine in kBatch mode, or directly from each tenant's refreshed
        // private forecaster in kIncremental mode (per-tenant state cannot
        // be cross-tenant batched; the request seed derivation is byte-for
        // -byte the same). Any per-request error degrades that tenant to
        // the fallback — never the whole round.
        std::vector<ForecastRequest> requests;
        std::vector<size_t> request_tenant;
        requests.reserve(shard_admitted[s].size());
        request_tenant.reserve(shard_admitted[s].size());
        for (size_t t : shard_admitted[s]) {
          if (!sessions[t]->awaiting_plan()) {
            continue;  // refresh error already degraded this round
          }
          const size_t context = served_context[model_index(t)];
          const size_t end = sessions[t]->ObservedEnd();
          ForecastRequest request;
          request.tenant_id = t;
          request.model = served[model_index(t)];
          request.input.context.assign(
              series[t].values.begin() + static_cast<long>(end - context),
              series[t].values.begin() + static_cast<long>(end));
          request.input.start_index = end - context;
          request.input.step_minutes = series[t].step_minutes;
          request.seed =
              DeriveSeed(DeriveSeed(options.seed, kRequestStream + t), round);
          requests.push_back(std::move(request));
          request_tenant.push_back(t);
        }
        std::vector<ForecastResponse> responses;
        if (incremental) {
          responses.resize(requests.size());
          for (size_t k = 0; k < requests.size(); ++k) {
            const forecast::Forecaster& model =
                *refresh_models[request_tenant[k]];
            auto forecast_or =
                model.PredictSeeded(requests[k].input, requests[k].seed);
            if (forecast_or.ok()) {
              responses[k].forecast = std::move(*forecast_or);
            } else {
              responses[k].status = forecast_or.status();
            }
          }
        } else {
          responses = shards[s].engine->Execute(requests);
        }
        for (size_t k = 0; k < responses.size(); ++k) {
          core::TenantSession& session = *sessions[request_tenant[k]];
          Status installed = responses[k].status;
          if (installed.ok()) {
            Result<std::vector<int>> plan =
                allocator.Allocate(responses[k].forecast, session.config());
            installed = plan.ok()
                            ? session.Install(std::move(plan).value(),
                                              std::move(responses[k].forecast))
                            : plan.status();
          }
          if (!installed.ok()) {
            session.Degrade(core::DegradeCause::kPlannerError);
          }
        }

        // Phase 4: drive the shard's clusters to the next planning round.
        // Synchronized rounds: a plan shorter than the round holds its last
        // value.
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
      result.tier_switches += s.selector.switches;
      result.tier_promotions += s.selector.promotions;
      result.tier_demotions += s.selector.probe_demotions +
                               s.selector.fault_demotions +
                               s.selector.drift_demotions;
      result.prescale_activations += s.prescaler.activations;
      result.prescale_rollbacks += s.prescaler.rollbacks;
      result.prescale_floor_raised_steps += s.prescaler.floor_raised_steps;
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
  // The serve.* counters mirror the finished result, so registry values
  // agree exactly with the result fields.
  if (selecting) {
    obs::IncrementCounters(
        metrics,
        {{"serve.select.switches", result.tier_switches},
         {"serve.select.promotions", result.tier_promotions},
         {"serve.select.demotions", result.tier_demotions},
         {"serve.select.prescale.activations", result.prescale_activations},
         {"serve.select.prescale.rollbacks", result.prescale_rollbacks},
         {"serve.select.prescale.floor_raised_steps",
          result.prescale_floor_raised_steps}});
  }
  if (incremental) {
    obs::IncrementCounters(
        metrics,
        {{"serve.refresh.rounds", result.refresh.refreshes},
         {"serve.refresh.points_consumed", result.refresh.points_consumed},
         {"serve.refresh.resyncs", result.refresh.resyncs},
         {"serve.refresh.full_retrains", result.refresh.full_retrains}});
  }
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
