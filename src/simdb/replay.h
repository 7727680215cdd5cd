#ifndef RPAS_SIMDB_REPLAY_H_
#define RPAS_SIMDB_REPLAY_H_

#include <vector>

#include "common/result.h"
#include "simdb/cluster.h"
#include "ts/time_series.h"

namespace rpas::simdb {

/// Aggregate outcome of replaying an allocation plan against a realized
/// workload on the cluster simulator: what only the simulator knows. The
/// plan's Eq. 3 under/over-provisioning rates are core::EvaluateAllocation's.
struct ReplayReport {
  std::vector<StepStats> steps;
  /// Fraction of steps under-provisioned on the capacity actually standing
  /// (StepStats::under_provisioned): Eq. 3's rate plus the warm-up losses
  /// of scale-out steps.
  double under_provision_rate = 0.0;
  /// Fraction of steps whose latency proxy violated the SLO.
  double slo_violation_rate = 0.0;
  double mean_utilization = 0.0;
  int64_t total_node_steps = 0;
  int scale_events = 0;
  int direction_changes = 0;  ///< thrashing indicator (paper §V-A)
};

/// Replays `allocation[t]` nodes against `workload.values[t]` for every
/// step. Sizes must match.
Result<ReplayReport> ReplayAllocation(const ts::TimeSeries& workload,
                                      const std::vector<int>& allocation,
                                      const Cluster::Options& options);

}  // namespace rpas::simdb

#endif  // RPAS_SIMDB_REPLAY_H_
