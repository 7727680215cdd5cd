#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "solver/autoscaling.h"
#include "solver/simplex.h"

namespace rpas::solver {
namespace {

// ----------------------------------------------------------------- Simplex ---

TEST(SimplexTest, SimpleMaximizationAsMinimization) {
  // max x + y s.t. x + 2y <= 4, 3x + y <= 6  =>  min -(x + y).
  // Optimum at intersection: x = 8/5, y = 6/5, value 14/5.
  LinearProgram lp;
  lp.objective = {-1.0, -1.0};
  lp.constraints.push_back({{1.0, 2.0}, Relation::kLessEqual, 4.0});
  lp.constraints.push_back({{3.0, 1.0}, Relation::kLessEqual, 6.0});
  auto sol = SolveSimplex(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective_value, -14.0 / 5.0, 1e-9);
  EXPECT_NEAR(sol->x[0], 8.0 / 5.0, 1e-9);
  EXPECT_NEAR(sol->x[1], 6.0 / 5.0, 1e-9);
}

TEST(SimplexTest, GreaterEqualConstraintsNeedPhase1) {
  // min 2x + 3y s.t. x + y >= 4, x >= 1  =>  x = 4? cost: put everything on
  // x (cheaper): x = 4, y = 0, value 8.
  LinearProgram lp;
  lp.objective = {2.0, 3.0};
  lp.constraints.push_back({{1.0, 1.0}, Relation::kGreaterEqual, 4.0});
  lp.constraints.push_back({{1.0, 0.0}, Relation::kGreaterEqual, 1.0});
  auto sol = SolveSimplex(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective_value, 8.0, 1e-9);
  EXPECT_NEAR(sol->x[0], 4.0, 1e-9);
  EXPECT_NEAR(sol->x[1], 0.0, 1e-9);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + 2y s.t. x + y = 3, y >= 1  =>  x = 2, y = 1, value 4.
  LinearProgram lp;
  lp.objective = {1.0, 2.0};
  lp.constraints.push_back({{1.0, 1.0}, Relation::kEqual, 3.0});
  lp.constraints.push_back({{0.0, 1.0}, Relation::kGreaterEqual, 1.0});
  auto sol = SolveSimplex(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective_value, 4.0, 1e-9);
}

TEST(SimplexTest, InfeasibleDetected) {
  // x <= 1 and x >= 2 cannot both hold.
  LinearProgram lp;
  lp.objective = {1.0};
  lp.constraints.push_back({{1.0}, Relation::kLessEqual, 1.0});
  lp.constraints.push_back({{1.0}, Relation::kGreaterEqual, 2.0});
  EXPECT_EQ(SolveSimplex(lp).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SimplexTest, UnboundedDetected) {
  // min -x with only x >= 1: x can grow forever.
  LinearProgram lp;
  lp.objective = {-1.0};
  lp.constraints.push_back({{1.0}, Relation::kGreaterEqual, 1.0});
  EXPECT_EQ(SolveSimplex(lp).status().code(), StatusCode::kOutOfRange);
}

TEST(SimplexTest, NegativeRhsNormalized) {
  // x - y <= -2  <=>  y - x >= 2. min y s.t. that and x >= 0 => y = 2.
  LinearProgram lp;
  lp.objective = {0.0, 1.0};
  lp.constraints.push_back({{1.0, -1.0}, Relation::kLessEqual, -2.0});
  auto sol = SolveSimplex(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective_value, 2.0, 1e-9);
}

TEST(SimplexTest, RaggedConstraintRejected) {
  LinearProgram lp;
  lp.objective = {1.0, 1.0};
  lp.constraints.push_back({{1.0}, Relation::kLessEqual, 1.0});
  EXPECT_EQ(SolveSimplex(lp).status().code(), StatusCode::kInvalidArgument);
}

TEST(SimplexTest, EmptyProgramRejected) {
  LinearProgram lp;
  EXPECT_EQ(SolveSimplex(lp).status().code(), StatusCode::kInvalidArgument);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex (degeneracy);
  // Bland's rule must still terminate.
  LinearProgram lp;
  lp.objective = {1.0, 1.0};
  lp.constraints.push_back({{1.0, 1.0}, Relation::kGreaterEqual, 2.0});
  lp.constraints.push_back({{2.0, 2.0}, Relation::kGreaterEqual, 4.0});
  lp.constraints.push_back({{1.0, 0.0}, Relation::kGreaterEqual, 1.0});
  lp.constraints.push_back({{0.0, 1.0}, Relation::kGreaterEqual, 1.0});
  auto sol = SolveSimplex(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective_value, 2.0, 1e-9);
}

TEST(SimplexTest, SolutionSatisfiesConstraints) {
  Rng rng(3);
  // Random feasible covering problems: min 1.x s.t. x_i >= b_i.
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.UniformInt(8);
    LinearProgram lp;
    lp.objective.assign(n, 1.0);
    std::vector<double> b(n);
    for (size_t i = 0; i < n; ++i) {
      b[i] = rng.Uniform(0.0, 10.0);
      Constraint c;
      c.coeffs.assign(n, 0.0);
      c.coeffs[i] = 1.0;
      c.relation = Relation::kGreaterEqual;
      c.rhs = b[i];
      lp.constraints.push_back(std::move(c));
    }
    auto sol = SolveSimplex(lp);
    ASSERT_TRUE(sol.ok());
    double expected = 0.0;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_GE(sol->x[i], b[i] - 1e-9);
      expected += b[i];
    }
    EXPECT_NEAR(sol->objective_value, expected, 1e-6);
  }
}

// ------------------------------------------------------------- AutoScaling ---

TEST(AutoScalingTest, IntegerSolutionIsCeiling) {
  AutoScalingProblem problem;
  problem.workloads = {0.0, 0.5, 1.0, 1.5, 7.3};
  problem.thresholds = {1.0};
  problem.min_nodes = 1;
  auto alloc = SolveAutoScalingInteger(problem);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(*alloc, (std::vector<int>{1, 1, 1, 2, 8}));
}

TEST(AutoScalingTest, ExactMultipleDoesNotRoundUp) {
  AutoScalingProblem problem;
  problem.workloads = {2.0};
  problem.thresholds = {0.5};
  auto alloc = SolveAutoScalingInteger(problem);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ((*alloc)[0], 4);
}

TEST(AutoScalingTest, PerStepThresholds) {
  AutoScalingProblem problem;
  problem.workloads = {4.0, 4.0};
  problem.thresholds = {1.0, 2.0};
  auto alloc = SolveAutoScalingInteger(problem);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(*alloc, (std::vector<int>{4, 2}));
}

TEST(AutoScalingTest, MinNodesEnforced) {
  AutoScalingProblem problem;
  problem.workloads = {0.0, 0.1};
  problem.thresholds = {1.0};
  problem.min_nodes = 3;
  auto alloc = SolveAutoScalingInteger(problem);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(*alloc, (std::vector<int>{3, 3}));
}

TEST(AutoScalingTest, MaxNodesCapViolationDetected) {
  AutoScalingProblem problem;
  problem.workloads = {100.0};
  problem.thresholds = {1.0};
  problem.max_nodes = 10;
  EXPECT_EQ(SolveAutoScalingInteger(problem).status().code(),
            StatusCode::kOutOfRange);
}

TEST(AutoScalingTest, RejectsNonPositiveThreshold) {
  AutoScalingProblem problem;
  problem.workloads = {1.0};
  problem.thresholds = {0.0};
  EXPECT_EQ(SolveAutoScalingInteger(problem).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AutoScalingTest, RejectsNonFiniteAndOutOfIntRangeInputs) {
  // NaN fails every ordered comparison, so a check written as `w < 0`
  // lets it through to the node-count cast; so do infinities and
  // workloads whose node count overflows int.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    std::vector<double> workloads;
    double threshold;
  };
  const Case cases[] = {
      {{1.0, nan}, 1.0}, {{inf}, 1.0},   {{-inf}, 1.0},    {{1e300}, 1.0},
      {{1.0}, nan},      {{1.0}, inf},   {{1e10}, 1e-300},
  };
  for (const Case& c : cases) {
    AutoScalingProblem problem;
    problem.workloads = c.workloads;
    problem.thresholds = {c.threshold};
    EXPECT_EQ(SolveAutoScalingInteger(problem).status().code(),
              StatusCode::kInvalidArgument)
        << c.workloads.back() << " / " << c.threshold;
    EXPECT_EQ(SolveAutoScalingLp(problem).status().code(),
              StatusCode::kInvalidArgument)
        << c.workloads.back() << " / " << c.threshold;
  }
  // The int range is the boundary: INT_MAX nodes solve, one more does not.
  AutoScalingProblem problem;
  problem.thresholds = {1.0};
  problem.workloads = {2147483647.0};
  auto alloc = SolveAutoScalingInteger(problem);
  ASSERT_TRUE(alloc.ok()) << alloc.status().ToString();
  EXPECT_EQ((*alloc)[0], std::numeric_limits<int>::max());
  problem.workloads = {2147483648.0};
  EXPECT_EQ(SolveAutoScalingInteger(problem).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AutoScalingTest, RejectsNegativeWorkload) {
  AutoScalingProblem problem;
  problem.workloads = {-1.0};
  problem.thresholds = {1.0};
  EXPECT_FALSE(SolveAutoScalingInteger(problem).ok());
}

TEST(AutoScalingTest, RejectsEmpty) {
  AutoScalingProblem problem;
  problem.thresholds = {1.0};
  EXPECT_FALSE(SolveAutoScalingInteger(problem).ok());
}

TEST(AutoScalingTest, LpRelaxationMatchesContinuousDemand) {
  AutoScalingProblem problem;
  problem.workloads = {3.0, 0.2, 5.5};
  problem.thresholds = {2.0};
  problem.min_nodes = 1;
  auto lp = SolveAutoScalingLp(problem);
  ASSERT_TRUE(lp.ok());
  EXPECT_NEAR((*lp)[0], 1.5, 1e-9);
  EXPECT_NEAR((*lp)[1], 1.0, 1e-9);  // floor binds
  EXPECT_NEAR((*lp)[2], 2.75, 1e-9);
}

TEST(AutoScalingTest, IntegerIsCeilOfLpRelaxation) {
  // Cross-check on random instances: the integral solution equals
  // max(min_nodes, ceil(LP relaxation per step)).
  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    AutoScalingProblem problem;
    const size_t h = 1 + rng.UniformInt(12);
    for (size_t t = 0; t < h; ++t) {
      problem.workloads.push_back(rng.Uniform(0.0, 20.0));
    }
    problem.thresholds = {rng.Uniform(0.5, 3.0)};
    problem.min_nodes = 1 + static_cast<int>(rng.UniformInt(3));
    auto integer = SolveAutoScalingInteger(problem);
    auto lp = SolveAutoScalingLp(problem);
    ASSERT_TRUE(integer.ok());
    ASSERT_TRUE(lp.ok());
    for (size_t t = 0; t < h; ++t) {
      const int expected = std::max(
          problem.min_nodes,
          static_cast<int>(std::ceil((*lp)[t] - 1e-6)));
      EXPECT_EQ((*integer)[t], expected) << "trial " << trial << " t=" << t;
    }
  }
}

TEST(AutoScalingTest, BuildLpShape) {
  AutoScalingProblem problem;
  problem.workloads = {1.0, 2.0};
  problem.thresholds = {1.0};
  problem.min_nodes = 1;
  problem.max_nodes = 5;
  LinearProgram lp = BuildAutoScalingLp(problem);
  EXPECT_EQ(lp.num_vars(), 2u);
  // Per step: demand + floor + cap = 3 constraints.
  EXPECT_EQ(lp.constraints.size(), 6u);
}

TEST(SimplexTest, IterationCapReportsResourceExhausted) {
  // A perfectly solvable LP, but with a 1-iteration budget.
  LinearProgram lp;
  lp.objective = {1.0, 1.0};
  lp.constraints.push_back({{1.0, 0.0}, Relation::kGreaterEqual, 3.0});
  lp.constraints.push_back({{0.0, 1.0}, Relation::kGreaterEqual, 4.0});
  EXPECT_EQ(SolveSimplex(lp, /*max_iterations=*/1).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(SimplexTest, ZeroRhsConstraintsHandled) {
  // min x s.t. x >= 0 (degenerate at the origin).
  LinearProgram lp;
  lp.objective = {1.0};
  lp.constraints.push_back({{1.0}, Relation::kGreaterEqual, 0.0});
  auto sol = SolveSimplex(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->x[0], 0.0, 1e-9);
}

TEST(SimplexTest, RedundantEqualityKeptConsistent) {
  // Duplicated equality rows leave a zero-row artificial in the basis;
  // the solver must still return the right optimum.
  LinearProgram lp;
  lp.objective = {1.0, 1.0};
  lp.constraints.push_back({{1.0, 1.0}, Relation::kEqual, 2.0});
  lp.constraints.push_back({{1.0, 1.0}, Relation::kEqual, 2.0});
  auto sol = SolveSimplex(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->objective_value, 2.0, 1e-9);
}

// Monotonicity sweep: higher workloads can never need fewer nodes.
class AutoScalingMonotonicityTest
    : public ::testing::TestWithParam<double> {};

TEST_P(AutoScalingMonotonicityTest, NodesMonotoneInWorkload) {
  const double theta = GetParam();
  AutoScalingProblem low;
  AutoScalingProblem high;
  low.thresholds = {theta};
  high.thresholds = {theta};
  for (int w = 0; w < 30; ++w) {
    low.workloads = {static_cast<double>(w)};
    high.workloads = {static_cast<double>(w) + 0.7};
    auto a = SolveAutoScalingInteger(low);
    auto b = SolveAutoScalingInteger(high);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_LE((*a)[0], (*b)[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, AutoScalingMonotonicityTest,
                         ::testing::Values(0.5, 0.7, 1.0, 2.5));

}  // namespace
}  // namespace rpas::solver
