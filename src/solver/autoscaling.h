#ifndef RPAS_SOLVER_AUTOSCALING_H_
#define RPAS_SOLVER_AUTOSCALING_H_

#include <vector>

#include "common/result.h"
#include "solver/simplex.h"

namespace rpas::solver {

/// The auto-scaling optimization of paper Definition 3/4/6/7:
///   min sum_t c_t   s.t.  w_t / c_t <= theta_t,  c_t >= min_nodes,
/// where `workloads[t]` is the (possibly quantile-forecast) workload ŵ_t^τ
/// and `thresholds[t]` the per-step utilization threshold θ_t. When every
/// θ_t is identical pass a single-element `thresholds`.
struct AutoScalingProblem {
  std::vector<double> workloads;
  std::vector<double> thresholds;  ///< size 1 (uniform) or workloads.size()
  int min_nodes = 1;               ///< floor on the node count per step
  int max_nodes = 0;               ///< 0 = uncapped; otherwise a hard cap

  /// Threshold applicable at step t.
  double ThresholdAt(size_t t) const;
};

/// Integral allocation: the constraint set is separable per step, so the
/// optimum is c_t = max(min_nodes, ceil(w_t / theta_t)). Returns
/// InvalidArgument on non-positive or non-finite thresholds, negative or
/// non-finite workloads, and node counts beyond the int range; OutOfRange
/// if a cap is given and some step needs more than max_nodes.
Result<std::vector<int>> SolveAutoScalingInteger(
    const AutoScalingProblem& problem);

/// Continuous relaxation solved with the general simplex solver
/// (paper: "solved using standard linear programming solvers"). Exists to
/// mirror the paper's formulation; cross-checked against the closed form.
Result<std::vector<double>> SolveAutoScalingLp(
    const AutoScalingProblem& problem);

/// Builds the explicit LP for the relaxation (exposed for tests).
LinearProgram BuildAutoScalingLp(const AutoScalingProblem& problem);

}  // namespace rpas::solver

#endif  // RPAS_SOLVER_AUTOSCALING_H_
