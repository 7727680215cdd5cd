#include "solver/autoscaling.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/strings.h"

namespace rpas::solver {

double AutoScalingProblem::ThresholdAt(size_t t) const {
  RPAS_CHECK(!thresholds.empty());
  return thresholds.size() == 1 ? thresholds[0] : thresholds[t];
}

namespace {
// Every caller's inputs pass here before the node-count cast, so NaN, ±Inf
// and node counts beyond int are rejected where they enter rather than by
// whichever caller remembered to check.
Status ValidateProblem(const AutoScalingProblem& problem) {
  if (problem.workloads.empty()) {
    return Status::InvalidArgument("auto-scaling problem has no steps");
  }
  if (problem.thresholds.size() != 1 &&
      problem.thresholds.size() != problem.workloads.size()) {
    return Status::InvalidArgument(
        "thresholds must have size 1 or match workloads");
  }
  constexpr double kMaxNodes = std::numeric_limits<int>::max();
  for (size_t t = 0; t < problem.workloads.size(); ++t) {
    const double threshold = problem.ThresholdAt(t);
    if (!std::isfinite(threshold) || threshold <= 0.0) {
      return Status::InvalidArgument("thresholds must be positive and finite");
    }
    const double workload = problem.workloads[t];
    if (!std::isfinite(workload) || workload < 0.0) {
      return Status::InvalidArgument(
          StrFormat("workload at step %zu must be finite and non-negative",
                    t));
    }
    // Finite inputs can still overflow to +Inf here; that fails too.
    if (std::ceil(workload / threshold - 1e-9) > kMaxNodes) {
      return Status::InvalidArgument(StrFormat(
          "step %zu needs more nodes than an int can hold", t));
    }
  }
  if (problem.min_nodes < 0) {
    return Status::InvalidArgument("min_nodes must be >= 0");
  }
  return Status::OK();
}
}  // namespace

Result<std::vector<int>> SolveAutoScalingInteger(
    const AutoScalingProblem& problem) {
  RPAS_RETURN_IF_ERROR(ValidateProblem(problem));
  std::vector<int> allocation(problem.workloads.size());
  for (size_t t = 0; t < problem.workloads.size(); ++t) {
    const double required = problem.workloads[t] / problem.ThresholdAt(t);
    // ceil with a tolerance so w/theta == k does not round to k+1 from
    // floating-point dust.
    int nodes = static_cast<int>(std::ceil(required - 1e-9));
    nodes = std::max(nodes, problem.min_nodes);
    if (problem.max_nodes > 0 && nodes > problem.max_nodes) {
      return Status::OutOfRange(StrFormat(
          "step %zu requires %d nodes, cap is %d", t, nodes,
          problem.max_nodes));
    }
    allocation[t] = nodes;
  }
  return allocation;
}

LinearProgram BuildAutoScalingLp(const AutoScalingProblem& problem) {
  const size_t h = problem.workloads.size();
  LinearProgram lp;
  lp.objective.assign(h, 1.0);
  for (size_t t = 0; t < h; ++t) {
    // w_t / c_t <= theta_t  <=>  c_t >= w_t / theta_t.
    Constraint demand;
    demand.coeffs.assign(h, 0.0);
    demand.coeffs[t] = 1.0;
    demand.relation = Relation::kGreaterEqual;
    demand.rhs = problem.workloads[t] / problem.ThresholdAt(t);
    lp.constraints.push_back(std::move(demand));

    if (problem.min_nodes > 0) {
      Constraint floor;
      floor.coeffs.assign(h, 0.0);
      floor.coeffs[t] = 1.0;
      floor.relation = Relation::kGreaterEqual;
      floor.rhs = static_cast<double>(problem.min_nodes);
      lp.constraints.push_back(std::move(floor));
    }
    if (problem.max_nodes > 0) {
      Constraint cap;
      cap.coeffs.assign(h, 0.0);
      cap.coeffs[t] = 1.0;
      cap.relation = Relation::kLessEqual;
      cap.rhs = static_cast<double>(problem.max_nodes);
      lp.constraints.push_back(std::move(cap));
    }
  }
  return lp;
}

Result<std::vector<double>> SolveAutoScalingLp(
    const AutoScalingProblem& problem) {
  RPAS_RETURN_IF_ERROR(ValidateProblem(problem));
  RPAS_ASSIGN_OR_RETURN(LpSolution solution,
                        SolveSimplex(BuildAutoScalingLp(problem)));
  return solution.x;
}

}  // namespace rpas::solver
