#ifndef RPAS_CORE_SCALING_CONFIG_H_
#define RPAS_CORE_SCALING_CONFIG_H_

#include <cmath>
#include <limits>

namespace rpas::core {

/// Shared configuration for every auto-scaling strategy.
struct ScalingConfig {
  /// theta: maximum average workload per compute node (paper Eq. 3's
  /// predefined threshold; e.g., the workload units one node absorbs while
  /// staying at or below the target CPU percentage).
  double theta = 1.0;
  /// Lower bound on the node count (a database keeps >= 1 node).
  int min_nodes = 1;
  /// Hard cap; 0 = uncapped.
  int max_nodes = 0;
};

/// Minimum node count satisfying workload / c <= theta (with min/max
/// clamping). The integral optimum of the per-step auto-scaling problem.
/// Total over every double: a need that is NaN, +Inf or at least INT_MAX
/// saturates to INT_MAX before the max_nodes cap (unknown or unbounded
/// demand never scales in), and one at or below min_nodes (-Inf included)
/// gives min_nodes.
inline int RequiredNodes(double workload, const ScalingConfig& config) {
  const double need = std::ceil(workload / config.theta - 1e-9);
  int nodes = config.min_nodes;
  if (!(need < static_cast<double>(std::numeric_limits<int>::max()))) {
    nodes = std::numeric_limits<int>::max();
  } else if (need > static_cast<double>(config.min_nodes)) {
    nodes = static_cast<int>(need);
  }
  if (config.max_nodes > 0 && nodes > config.max_nodes) {
    nodes = config.max_nodes;
  }
  return nodes;
}

}  // namespace rpas::core

#endif  // RPAS_CORE_SCALING_CONFIG_H_
