#ifndef RPAS_SIMDB_CLUSTER_H_
#define RPAS_SIMDB_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "simdb/faults.h"
#include "simdb/warmup.h"

namespace rpas::simdb {

/// Per-step observation of the simulated cluster.
struct StepStats {
  size_t step = 0;
  int target_nodes = 0;      ///< allocation requested for the step
  int active_nodes = 0;      ///< nodes counted at full capacity
  double effective_nodes = 0.0;  ///< active + fractional warming capacity
  double workload = 0.0;
  double avg_utilization = 0.0;  ///< workload / (effective * per-node cap.)
  double p_latency_ms = 0.0;     ///< queueing-model latency proxy
  bool under_provisioned = false;  ///< avg utilization above threshold
  bool slo_violated = false;       ///< latency proxy above SLO
  /// An injected fault was active this step (StepFaults::Any()): the one
  /// definition behind faulted_steps and ScalingDecision::faulted.
  bool faulted = false;
  int nodes_added = 0;
  int nodes_removed = 0;
  int nodes_failed = 0;  ///< involuntary losses this step (crash injection)
  int nodes_delayed = 0; ///< requested adds suppressed by an actuation fault
  int nodes_denied = 0;  ///< requested adds lost to a partial scale-out
  double spike_multiplier = 1.0;  ///< workload fault applied this step
};

/// Storage-disaggregated database cluster simulator (paper Fig. 4): a pool
/// of stateless compute nodes over shared storage. Scale-out adds nodes
/// that spend a warm-up period rebuilding in-memory components from
/// checkpoints (Fig. 5) and contribute only fractional capacity during the
/// step in which they arrive; scale-in is immediate (paper §II-A: no data
/// migration in disaggregated architectures).
class Cluster {
 public:
  /// Pre-resolved simdb.* instrument handles. Resolving goes through the
  /// MetricsRegistry name-lookup mutex; a fleet constructing thousands of
  /// per-tenant clusters inside a parallel setup phase resolves ONCE and
  /// shares the bundle via Options::handles instead of paying (and
  /// contending on) seven lookups per cluster. The per-step counters fire
  /// inside the fleet's parallel shard phase, so they resolve striped
  /// (per-thread-slot, merged exactly on read — exported values are
  /// identical to unstriped counters).
  struct MetricHandles {
    obs::Counter* steps = nullptr;
    obs::Counter* nodes_added = nullptr;
    obs::Counter* nodes_removed = nullptr;
    obs::Counter* nodes_failed = nullptr;
    obs::Counter* slo_violations = nullptr;
    obs::Counter* under_provisioned = nullptr;
    obs::Gauge* nodes = nullptr;

    static MetricHandles Resolve(obs::MetricsRegistry* metrics);
  };

  struct Options {
    double step_seconds = 600.0;       ///< decision interval (10 minutes)
    double node_capacity = 1.0;        ///< workload units a node absorbs at
                                       ///< 100% utilization
    double utilization_threshold = 0.7;  ///< theta: target max avg load
    double checkpoint_gb = 4.0;        ///< in-memory state per node
    WarmupModel warmup;
    double service_time_ms = 2.0;      ///< nominal per-query service time
    double slo_latency_ms = 20.0;      ///< latency proxy SLO
    int initial_nodes = 1;
    int min_nodes = 1;
    int max_nodes = 1 << 20;
    /// Per-node per-step crash probability (failure injection). A crashed
    /// node disappears mid-step (its capacity is lost for that step); the
    /// next scaling decision replaces it with a fresh, warming node —
    /// stateless compute over shared storage recovers exactly this way.
    double failure_rate = 0.0;
    uint64_t seed = 1234;
    /// Metrics sink for per-step counters (simdb.steps, simdb.nodes_added,
    /// ...); null routes to obs::MetricsRegistry::Global(). Must outlive
    /// the cluster. Handles are cached at construction, so Step() pays only
    /// a few relaxed atomics (a load + branch while metrics are disabled).
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional pre-resolved handle bundle (see MetricHandles). When set it
    /// must have been resolved against the registry `metrics` routes to;
    /// the constructor then performs zero registry lookups.
    const MetricHandles* handles = nullptr;
  };

  explicit Cluster(Options options);

  /// Sets the target node count for the coming step (the auto-scaling
  /// decision), provisioning warm-ups / removals, then processes
  /// `workload` for one step and returns the observation.
  StepStats Step(int target_nodes, double workload) {
    return Step(target_nodes, workload, StepFaults{});
  }

  /// Step with injected faults: `faults` may defer or partially grant the
  /// scale-out actuation, crash running nodes, or multiply the realized
  /// workload. A default-constructed StepFaults makes this identical to the
  /// two-argument overload (same RNG consumption, same observation).
  StepStats Step(int target_nodes, double workload,
                 const StepFaults& faults);

  /// Current node count (including warming nodes).
  int NumNodes() const { return static_cast<int>(nodes_.size()); }
  size_t CurrentStep() const { return step_; }
  const Options& options() const { return options_; }

  /// Crashes `count` nodes immediately (manual failure injection); they
  /// vanish before the next Step() and are replaced by the following
  /// scaling decision. Never drops below one node.
  void InjectNodeFailures(int count);

  /// Cumulative counters.
  int64_t total_node_steps() const { return total_node_steps_; }
  int total_scale_events() const { return total_scale_events_; }
  int total_direction_changes() const { return total_direction_changes_; }
  int total_failures() const { return total_failures_; }

 private:
  struct Node {
    double warmup_remaining_seconds = 0.0;
  };

  Options options_;
  std::vector<Node> nodes_;
  // Cached metric handles (owned by the registry behind Options::metrics).
  MetricHandles handles_;
  size_t step_ = 0;
  Rng rng_;
  int64_t total_node_steps_ = 0;
  int total_scale_events_ = 0;
  int total_direction_changes_ = 0;
  int total_failures_ = 0;
  int last_direction_ = 0;
};

}  // namespace rpas::simdb

#endif  // RPAS_SIMDB_CLUSTER_H_
