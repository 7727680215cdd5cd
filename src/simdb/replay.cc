#include "simdb/replay.h"

namespace rpas::simdb {

Result<ReplayReport> ReplayAllocation(const ts::TimeSeries& workload,
                                      const std::vector<int>& allocation,
                                      const Cluster::Options& options) {
  if (workload.size() != allocation.size()) {
    return Status::InvalidArgument(
        "workload and allocation lengths differ");
  }
  if (workload.empty()) {
    return Status::InvalidArgument("empty replay");
  }

  Cluster cluster(options);
  ReplayReport report;
  report.steps.reserve(workload.size());
  size_t under = 0;
  size_t slo = 0;
  double util_sum = 0.0;
  for (size_t t = 0; t < workload.size(); ++t) {
    StepStats stats = cluster.Step(allocation[t], workload.values[t]);
    util_sum += stats.avg_utilization;
    if (stats.under_provisioned) {
      ++under;
    }
    if (stats.slo_violated) {
      ++slo;
    }
    report.steps.push_back(stats);
  }
  const double n = static_cast<double>(workload.size());
  report.under_provision_rate = static_cast<double>(under) / n;
  report.slo_violation_rate = static_cast<double>(slo) / n;
  report.mean_utilization = util_sum / n;
  report.total_node_steps = cluster.total_node_steps();
  report.scale_events = cluster.total_scale_events();
  report.direction_changes = cluster.total_direction_changes();
  return report;
}

}  // namespace rpas::simdb
