#include "simdb/cluster.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace rpas::simdb {

Cluster::Cluster(Options options)
    : options_(std::move(options)), rng_(options_.seed) {
  RPAS_CHECK(options_.step_seconds > 0.0);
  RPAS_CHECK(options_.node_capacity > 0.0);
  RPAS_CHECK(options_.initial_nodes >= options_.min_nodes);
  RPAS_CHECK(options_.min_nodes >= 1);
  nodes_.assign(static_cast<size_t>(options_.initial_nodes), Node{});

  // Handles are cached once; Step() touches only the cached pointers. A
  // caller constructing many clusters (the fleet's parallel per-tenant
  // setup) passes a pre-resolved bundle so the registry's lookup mutex is
  // taken once per fleet, not seven times per tenant.
  if (options_.handles != nullptr) {
    handles_ = *options_.handles;
  } else {
    handles_ =
        MetricHandles::Resolve(obs::ResolveRegistry(options_.metrics));
  }
}

Cluster::MetricHandles Cluster::MetricHandles::Resolve(
    obs::MetricsRegistry* metrics) {
  MetricHandles handles;
  handles.steps = metrics->GetCounter("simdb.steps");
  handles.nodes_added = metrics->GetCounter("simdb.nodes_added");
  handles.nodes_removed = metrics->GetCounter("simdb.nodes_removed");
  handles.nodes_failed = metrics->GetCounter("simdb.nodes_failed");
  handles.slo_violations = metrics->GetCounter("simdb.slo_violations");
  handles.under_provisioned = metrics->GetCounter("simdb.under_provisioned");
  handles.nodes = metrics->GetGauge("simdb.nodes");
  return handles;
}

StepStats Cluster::Step(int target_nodes, double workload,
                        const StepFaults& faults) {
  target_nodes =
      std::clamp(target_nodes, options_.min_nodes, options_.max_nodes);
  workload *= faults.workload_multiplier;
  StepStats stats;
  stats.step = step_;
  stats.target_nodes = target_nodes;
  stats.workload = workload;
  stats.spike_multiplier = faults.workload_multiplier;
  stats.faulted = faults.Any();

  const int current = static_cast<int>(nodes_.size());
  if (target_nodes > current) {
    const int requested = target_nodes - current;
    int granted = requested;
    if (faults.actuation_delayed) {
      // Actuation outage: no new capacity arrives this step. The
      // autoscaler keeps re-requesting, so the nodes appear once the
      // outage clears.
      granted = 0;
      stats.nodes_delayed = requested;
    } else if (faults.partial_fraction < 1.0) {
      granted = static_cast<int>(
          std::floor(static_cast<double>(requested) *
                     std::clamp(faults.partial_fraction, 0.0, 1.0)));
      stats.nodes_denied = requested - granted;
    }
    stats.nodes_added = granted;
    for (int i = 0; i < granted; ++i) {
      Node node;
      node.warmup_remaining_seconds =
          options_.warmup.WarmupSeconds(options_.checkpoint_gb, &rng_);
      nodes_.push_back(node);
    }
  } else if (target_nodes < current) {
    // Scale-in: stateless compute over shared storage detaches immediately;
    // remove the youngest (possibly still warming) nodes first.
    stats.nodes_removed = current - target_nodes;
    nodes_.resize(static_cast<size_t>(target_nodes));
  }
  if (stats.nodes_added > 0 || stats.nodes_removed > 0) {
    ++total_scale_events_;
    const int direction = stats.nodes_added > 0 ? 1 : -1;
    if (last_direction_ != 0 && direction != last_direction_) {
      ++total_direction_changes_;
    }
    last_direction_ = direction;
  }

  // Scheduled transient crashes (FaultPlan): youngest nodes first, never
  // below one survivor. Independent of the cluster's own RNG stream so a
  // fault schedule does not perturb warm-up jitter draws.
  for (int i = 0; i < faults.crash_nodes && nodes_.size() > 1; ++i) {
    nodes_.pop_back();
    ++stats.nodes_failed;
    ++total_failures_;
  }

  // Effective capacity: a node warming for w seconds of an s-second step
  // contributes (1 - w/s) of its capacity this step.
  double effective = 0.0;
  int active = 0;
  for (Node& node : nodes_) {
    if (node.warmup_remaining_seconds <= 0.0) {
      effective += 1.0;
      ++active;
    } else {
      const double overlap =
          std::min(node.warmup_remaining_seconds, options_.step_seconds);
      effective += 1.0 - overlap / options_.step_seconds;
      node.warmup_remaining_seconds -= options_.step_seconds;
    }
  }
  effective = std::max(effective, 1e-9);

  stats.active_nodes = active;
  stats.effective_nodes = effective;
  stats.avg_utilization = workload * kTargetUtilization /
                          (effective * options_.node_capacity);
  stats.under_provisioned =
      workload / options_.node_capacity - 1e-9 > effective;

  // Latency proxy: M/M/1-style blow-up as utilization approaches 1.
  const double rho = std::min(stats.avg_utilization, 0.999);
  stats.p_latency_ms = options_.service_time_ms / (1.0 - rho);
  if (stats.avg_utilization >= 1.0) {
    stats.p_latency_ms = options_.service_time_ms * 1000.0;  // saturated
  }
  stats.slo_violated = stats.p_latency_ms > options_.slo_latency_ms;

  total_node_steps_ += static_cast<int64_t>(nodes_.size());
  ++step_;

  handles_.steps->Increment();
  handles_.nodes_added->Increment(stats.nodes_added);
  handles_.nodes_removed->Increment(stats.nodes_removed);
  handles_.nodes_failed->Increment(stats.nodes_failed);
  if (stats.slo_violated) {
    handles_.slo_violations->Increment();
  }
  if (stats.under_provisioned) {
    handles_.under_provisioned->Increment();
  }
  handles_.nodes->Set(static_cast<double>(nodes_.size()));
  return stats;
}

}  // namespace rpas::simdb
