// Tests for the two-tier simplex arithmetic (int64 fast path with exact
// fallback), the `SmallRational` scalar, warm starts, and the atomic
// `SimplexStats` counters.

#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/lp/simplex.h"
#include "src/lp/small_rational.h"

namespace crsat {
namespace {

LinearExpr Expr(std::vector<std::pair<VarId, std::int64_t>> terms,
                std::int64_t constant = 0) {
  LinearExpr expr;
  for (const auto& [var, coeff] : terms) {
    expr.AddTerm(var, Rational(coeff));
  }
  expr.AddConstant(Rational(constant));
  return expr;
}

TEST(SmallRationalTest, ArithmeticMatchesRationalSemantics) {
  SmallRational::ClearOverflow();
  SmallRational a = SmallRational::FromReduced(1, 3);
  SmallRational b = SmallRational::FromReduced(1, 6);
  EXPECT_EQ(a + b, SmallRational::FromReduced(1, 2));
  EXPECT_EQ(a - b, SmallRational::FromReduced(1, 6));
  EXPECT_EQ(a * b, SmallRational::FromReduced(1, 18));
  EXPECT_EQ(a / b, SmallRational(2));
  EXPECT_EQ(-a, SmallRational::FromReduced(-1, 3));
  EXPECT_TRUE(a > b);
  EXPECT_TRUE(b < a);
  EXPECT_TRUE(SmallRational().IsZero());
  EXPECT_FALSE(SmallRational::OverflowSeen());
}

TEST(SmallRationalTest, KeepsCanonicalForm) {
  SmallRational::ClearOverflow();
  // 4/8 reduces to 1/2; negative denominators normalize on division.
  SmallRational half = SmallRational::FromReduced(1, 2);
  EXPECT_EQ(SmallRational(4) / SmallRational(8), half);
  SmallRational negative = SmallRational(1) / SmallRational(-2);
  EXPECT_EQ(negative.numerator(), -1);
  EXPECT_EQ(negative.denominator(), 2);
  EXPECT_FALSE(SmallRational::OverflowSeen());
}

TEST(SmallRationalTest, OverflowRaisesStickyFlag) {
  SmallRational::ClearOverflow();
  SmallRational huge(INT64_MAX);
  SmallRational result = huge * huge;  // ~2^126, cannot fit.
  (void)result;
  EXPECT_TRUE(SmallRational::OverflowSeen());
  // Sticky: survives subsequent in-range operations.
  SmallRational ok = SmallRational(2) + SmallRational(3);
  EXPECT_EQ(ok, SmallRational(5));
  EXPECT_TRUE(SmallRational::OverflowSeen());
  SmallRational::ClearOverflow();
  EXPECT_FALSE(SmallRational::OverflowSeen());
}

TEST(SmallRationalTest, NearOverflowAdditionFlagsExactly) {
  SmallRational::ClearOverflow();
  SmallRational max(INT64_MAX);
  SmallRational one(1);
  (void)(max + one);
  EXPECT_TRUE(SmallRational::OverflowSeen());
  SmallRational::ClearOverflow();
  // Same magnitudes, but the result reduces back into range: (max/2) * 2.
  SmallRational halfish = SmallRational::FromReduced(INT64_MAX, 2);
  EXPECT_EQ(halfish * SmallRational(2), SmallRational(INT64_MAX));
  EXPECT_FALSE(SmallRational::OverflowSeen());
}

TEST(SmallRationalTest, SubtractProductMatchesTwoSeparateSteps) {
  const SmallRational values[] = {
      SmallRational(0),
      SmallRational(1),
      SmallRational(-1),
      SmallRational(3),
      SmallRational(INT64_MAX),
      SmallRational(INT64_MIN),
      SmallRational(INT64_MAX / 2),
      SmallRational::FromReduced(1, 2),
      SmallRational::FromReduced(-7, 3),
      SmallRational::FromReduced(INT64_MAX, 6),
  };
  for (const SmallRational& a : values) {
    for (const SmallRational& factor : values) {
      for (const SmallRational& b : values) {
        SmallRational::ClearOverflow();
        SmallRational two_steps = a;
        two_steps -= factor * b;
        const bool two_steps_overflowed = SmallRational::OverflowSeen();
        SmallRational::ClearOverflow();
        SmallRational fused = a;
        fused.SubtractProduct(factor, b);
        EXPECT_EQ(SmallRational::OverflowSeen(), two_steps_overflowed);
        EXPECT_EQ(fused, two_steps);
      }
    }
  }
  SmallRational::ClearOverflow();
}

// --- Cross-tier equivalence -------------------------------------------

// Optional features of a random system, each a case the sparse tableau
// layout must get right.
struct SystemShape {
  // Every odd variable is free, so it occupies a split column pair.
  bool free_variables = false;
  // Every row also adds explicit zero and cancelling terms.
  bool zero_terms = false;
  // Two extra `==` rows, the second twice the first: phase 1 leaves an
  // artificial basic in one of them and drops it as redundant.
  bool redundant_row = false;
};

LinearExpr RandomExpr(std::mt19937* rng, int num_vars,
                      const SystemShape& shape) {
  std::uniform_int_distribution<int> coeff(-4, 4);
  std::uniform_int_distribution<int> rhs(-6, 6);
  LinearExpr expr;
  for (int v = 0; v < num_vars; ++v) {
    expr.AddTerm(v, Rational(coeff(*rng)));
  }
  if (shape.zero_terms) {
    expr.AddTerm(0, Rational(0));
    expr.AddTerm(num_vars - 1, Rational(3));
    expr.AddTerm(num_vars - 1, Rational(-3));
  }
  expr.AddConstant(Rational(rhs(*rng)));
  return expr;
}

// Generates a random system with small integer coefficients. Feasible and
// infeasible instances both occur.
LinearSystem RandomSystem(std::mt19937* rng, int num_vars, int num_rows,
                          const SystemShape& shape = SystemShape()) {
  std::uniform_int_distribution<int> sense(0, 2);
  LinearSystem system;
  for (int v = 0; v < num_vars; ++v) {
    system.AddVariable("x" + std::to_string(v),
                       /*nonnegative=*/!(shape.free_variables && v % 2 == 1));
  }
  for (int r = 0; r < num_rows; ++r) {
    LinearExpr expr = RandomExpr(rng, num_vars, shape);
    switch (sense(*rng)) {
      case 0:
        system.AddLe(std::move(expr));
        break;
      case 1:
        system.AddGe(std::move(expr));
        break;
      default:
        system.AddEq(std::move(expr));
        break;
    }
  }
  if (shape.redundant_row) {
    LinearExpr expr = RandomExpr(rng, num_vars, shape);
    system.AddEq(expr * Rational(2));
    system.AddEq(std::move(expr));
  }
  return system;
}

// What one solve did: its result, its pivot counts and its final basis.
struct SolveTrace {
  LpResult result;
  std::uint64_t pivots = 0;
  std::uint64_t phase1_pivots = 0;
  std::uint64_t tier_fallbacks = 0;
  WarmStartBasis basis;
};

SolveTrace TraceSolve(const LinearSystem& system, const LinearExpr& objective,
                      SimplexOptions::Tier tier,
                      const std::vector<VarId>* crash_vars) {
  SolveTrace trace;
  SimplexOptions options;
  options.tier = tier;
  options.crash_vars = crash_vars;
  options.export_basis = &trace.basis;
  SimplexStats& stats = GetSimplexStats();
  stats.Reset();
  trace.result =
      SimplexSolver::SolveWith(system, objective, /*maximize=*/false, options)
          .value();
  trace.pivots = stats.pivots.load();
  trace.phase1_pivots = stats.phase1_pivots.load();
  trace.tier_fallbacks = stats.tier_fallbacks.load();
  return trace;
}

// Both tiers run one kernel, so short of an overflow fallback they take
// the same pivots and end on the same basis.
void ExpectTiersAgree(const LinearSystem& system, const LinearExpr& objective,
                      const std::vector<VarId>* crash_vars,
                      const std::string& where) {
  const SolveTrace fast = TraceSolve(
      system, objective, SimplexOptions::Tier::kTwoTier, crash_vars);
  const SolveTrace exact = TraceSolve(
      system, objective, SimplexOptions::Tier::kExactOnly, crash_vars);
  ASSERT_EQ(fast.tier_fallbacks, 0u) << where;
  ASSERT_EQ(fast.result.outcome, exact.result.outcome) << where;
  EXPECT_EQ(fast.pivots, exact.pivots) << where;
  EXPECT_EQ(fast.phase1_pivots, exact.phase1_pivots) << where;
  EXPECT_EQ(fast.basis.basis, exact.basis.basis) << where;
  EXPECT_EQ(fast.basis.num_columns, exact.basis.num_columns) << where;
  if (fast.result.outcome == LpOutcome::kOptimal) {
    EXPECT_EQ(fast.result.objective, exact.result.objective) << where;
    EXPECT_EQ(fast.result.values, exact.result.values) << where;
  }
}

class TwoTierPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TwoTierPropertyTest, TiersAgreeOnRandomSystems) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  SystemShape free_variables;
  free_variables.free_variables = true;
  SystemShape zero_terms;
  zero_terms.zero_terms = true;
  SystemShape redundant_row;
  redundant_row.redundant_row = true;
  const SystemShape shapes[] = {SystemShape(), free_variables, zero_terms,
                                redundant_row};
  const std::vector<VarId> crash = {0, 2};
  for (int instance = 0; instance < 40; ++instance) {
    for (size_t s = 0; s < std::size(shapes); ++s) {
      LinearSystem system = RandomSystem(&rng, 4, 5, shapes[s]);
      LinearExpr objective;
      for (int v = 0; v < 4; ++v) {
        objective.AddTerm(v, Rational((instance + v) % 3 - 1));
      }
      const std::string where =
          "instance " + std::to_string(instance) + " shape " +
          std::to_string(s);
      ExpectTiersAgree(system, objective, nullptr, where);
      ExpectTiersAgree(system, objective, &crash, where + " crash");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoTierPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(TwoTierTest, RedundantRowIsDroppedOnBothTiers) {
  // x + y == 2 and 2x + 2y == 4: after phase 1 one artificial stays basic
  // in a row with no other nonzero, so the row is dropped and the
  // exported basis covers one row of two.
  LinearSystem system;
  VarId x = system.AddVariable("x");
  VarId y = system.AddVariable("y");
  system.AddEq(Expr({{x, 1}, {y, 1}}, -2));
  system.AddEq(Expr({{x, 2}, {y, 2}}, -4));
  const LinearExpr objective = Expr({{x, 1}});
  const SolveTrace fast =
      TraceSolve(system, objective, SimplexOptions::Tier::kTwoTier, nullptr);
  ASSERT_EQ(fast.result.outcome, LpOutcome::kOptimal);
  EXPECT_EQ(fast.result.values, (std::vector<Rational>{0, 2}));
  EXPECT_EQ(fast.basis.basis.size(), 1u);
  ExpectTiersAgree(system, objective, nullptr, "redundant pair");
}

TEST(TwoTierTest, BigCoefficientsFallBackAndStayExact) {
  // Coefficients chosen so fast-tier pivoting overflows: products of
  // ~2^62 numerators leave int64 after one elimination step.
  const std::int64_t big = std::int64_t{1} << 62;
  LinearSystem system;
  VarId x = system.AddVariable("x");
  VarId y = system.AddVariable("y");
  LinearExpr row1;
  row1.AddTerm(x, Rational(BigInt(big)));
  row1.AddTerm(y, Rational(BigInt(big - 1)));
  row1.AddConstant(Rational(BigInt(-big)));
  system.AddLe(std::move(row1));
  LinearExpr row2;
  row2.AddTerm(x, Rational(BigInt(big - 3)));
  row2.AddTerm(y, Rational(BigInt(big - 5)));
  row2.AddConstant(Rational(BigInt(-big + 4)));
  system.AddGe(std::move(row2));

  GetSimplexStats().Reset();
  LpResult two_tier =
      SimplexSolver::SolveWith(system, Expr({{x, 1}, {y, 1}}),
                               /*maximize=*/false, SimplexOptions())
          .value();
  SimplexOptions exact;
  exact.tier = SimplexOptions::Tier::kExactOnly;
  LpResult reference =
      SimplexSolver::SolveWith(system, Expr({{x, 1}, {y, 1}}),
                               /*maximize=*/false, exact)
          .value();
  EXPECT_EQ(two_tier.outcome, reference.outcome);
  if (two_tier.outcome == LpOutcome::kOptimal) {
    EXPECT_EQ(two_tier.objective, reference.objective);
    EXPECT_EQ(two_tier.values, reference.values);
  }
  // The first solve must have abandoned the fast tier.
  EXPECT_GE(GetSimplexStats().tier_fallbacks.load(), 1u);
  EXPECT_EQ(GetSimplexStats().fast_solves.load(), 0u);
}

TEST(TwoTierTest, UnrepresentableInputFallsBackBeforePivoting) {
  // A coefficient that does not even fit int64 forces the fallback at
  // tableau-construction time.
  BigInt huge(1);
  for (int i = 0; i < 5; ++i) {
    huge = huge * BigInt(INT64_MAX);
  }
  LinearSystem system;
  VarId x = system.AddVariable("x");
  LinearExpr row;
  row.AddTerm(x, Rational(huge));
  row.AddConstant(Rational(-1));
  system.AddGe(std::move(row));
  GetSimplexStats().Reset();
  LpResult result = SimplexSolver::CheckFeasibility(system).value();
  EXPECT_EQ(result.outcome, LpOutcome::kOptimal);
  EXPECT_EQ(GetSimplexStats().tier_fallbacks.load(), 1u);
}

TEST(TwoTierTest, StatsResetZeroesEverything) {
  LinearSystem system;
  VarId x = system.AddVariable("x");
  system.AddLe(Expr({{x, 1}}, -3));
  (void)SimplexSolver::Solve(system, Expr({{x, 1}}), /*maximize=*/true)
      .value();
  SimplexStats& stats = GetSimplexStats();
  EXPECT_GT(stats.solves.load(), 0u);
  stats.Reset();
  EXPECT_EQ(stats.solves.load(), 0u);
  EXPECT_EQ(stats.pivots.load(), 0u);
  EXPECT_EQ(stats.phase1_pivots.load(), 0u);
  EXPECT_EQ(stats.fast_solves.load(), 0u);
  EXPECT_EQ(stats.fast_pivots.load(), 0u);
  EXPECT_EQ(stats.tier_fallbacks.load(), 0u);
  EXPECT_EQ(stats.warm_start_hits.load(), 0u);
  EXPECT_EQ(stats.warm_start_misses.load(), 0u);
}

// --- Warm starts -------------------------------------------------------

TEST(WarmStartTest, SecondSolveSkipsPhase1) {
  // Two solves of the same system: the second reuses the first's basis.
  LinearSystem system;
  VarId x = system.AddVariable("x");
  VarId y = system.AddVariable("y");
  system.AddGe(Expr({{x, 1}, {y, 1}}, -4));
  system.AddLe(Expr({{x, 1}}, -10));
  LinearExpr objective = Expr({{x, 2}, {y, 3}});

  WarmStartBasis basis;
  SimplexOptions first;
  first.export_basis = &basis;
  LpResult cold =
      SimplexSolver::SolveWith(system, objective, /*maximize=*/false, first)
          .value();
  ASSERT_EQ(cold.outcome, LpOutcome::kOptimal);
  ASSERT_FALSE(basis.empty());

  GetSimplexStats().Reset();
  SimplexOptions second;
  second.warm_start = &basis;
  LpResult warm =
      SimplexSolver::SolveWith(system, objective, /*maximize=*/false, second)
          .value();
  ASSERT_EQ(warm.outcome, LpOutcome::kOptimal);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm.values, cold.values);
  EXPECT_EQ(GetSimplexStats().warm_start_hits.load(), 1u);
  EXPECT_EQ(GetSimplexStats().phase1_pivots.load(), 0u);
}

TEST(WarmStartTest, PerturbedCoefficientsStillVerifyFeasibility) {
  // Same shape, one changed coefficient — the carried basis either remains
  // feasible (hit) or is rejected (miss); the answer must be exact either
  // way.
  for (std::int64_t bound : {4, 5, 6, 50}) {
    LinearSystem base;
    VarId x = base.AddVariable("x");
    VarId y = base.AddVariable("y");
    base.AddGe(Expr({{x, 1}, {y, 1}}, -bound));
    base.AddLe(Expr({{x, 1}, {y, 2}}, -100));
    WarmStartBasis basis;
    SimplexOptions exporting;
    exporting.export_basis = &basis;
    LpResult first = SimplexSolver::SolveWith(base, Expr({{x, 1}}),
                                              /*maximize=*/false, exporting)
                         .value();
    ASSERT_EQ(first.outcome, LpOutcome::kOptimal);

    LinearSystem changed;
    VarId cx = changed.AddVariable("x");
    VarId cy = changed.AddVariable("y");
    changed.AddGe(Expr({{cx, 1}, {cy, 1}}, -(bound + 1)));
    changed.AddLe(Expr({{cx, 1}, {cy, 2}}, -100));
    SimplexOptions warm;
    warm.warm_start = &basis;
    LpResult with_warm = SimplexSolver::SolveWith(changed, Expr({{cx, 1}}),
                                                  /*maximize=*/false, warm)
                             .value();
    LpResult without =
        SimplexSolver::Solve(changed, Expr({{cx, 1}}), /*maximize=*/false)
            .value();
    EXPECT_EQ(with_warm.outcome, without.outcome) << "bound " << bound;
    EXPECT_EQ(with_warm.objective, without.objective) << "bound " << bound;
  }
}

TEST(WarmStartTest, MismatchedShapeIsRejectedNotWrong) {
  LinearSystem small;
  VarId x = small.AddVariable("x");
  small.AddLe(Expr({{x, 1}}, -1));
  WarmStartBasis basis;
  SimplexOptions exporting;
  exporting.export_basis = &basis;
  (void)SimplexSolver::SolveWith(small, Expr({{x, 1}}), /*maximize=*/true,
                                 exporting)
      .value();
  ASSERT_FALSE(basis.empty());

  LinearSystem larger;
  VarId a = larger.AddVariable("a");
  VarId b = larger.AddVariable("b");
  larger.AddLe(Expr({{a, 1}, {b, 1}}, -2));
  larger.AddGe(Expr({{a, 1}}, -1));
  GetSimplexStats().Reset();
  SimplexOptions warm;
  warm.warm_start = &basis;
  LpResult result = SimplexSolver::SolveWith(larger, Expr({{a, 1}, {b, 1}}),
                                             /*maximize=*/true, warm)
                        .value();
  EXPECT_EQ(result.outcome, LpOutcome::kOptimal);
  EXPECT_EQ(result.objective, Rational(2));
  EXPECT_EQ(GetSimplexStats().warm_start_hits.load(), 0u);
  EXPECT_GE(GetSimplexStats().warm_start_misses.load(), 1u);
}

TEST(WarmStartTest, RandomSystemsWarmRestartsMatchColdSolves) {
  std::mt19937 rng(99);
  for (int instance = 0; instance < 30; ++instance) {
    LinearSystem system = RandomSystem(&rng, 3, 4);
    LinearExpr objective = Expr({{0, 1}, {1, -1}, {2, 1}});
    WarmStartBasis basis;
    SimplexOptions exporting;
    exporting.export_basis = &basis;
    LpResult cold = SimplexSolver::SolveWith(system, objective,
                                             /*maximize=*/false, exporting)
                        .value();
    if (cold.outcome != LpOutcome::kOptimal || basis.empty()) {
      continue;
    }
    SimplexOptions warm;
    warm.warm_start = &basis;
    LpResult restarted = SimplexSolver::SolveWith(system, objective,
                                                  /*maximize=*/false, warm)
                             .value();
    ASSERT_EQ(restarted.outcome, LpOutcome::kOptimal) << "instance "
                                                      << instance;
    EXPECT_EQ(restarted.objective, cold.objective) << "instance " << instance;
  }
}

}  // namespace
}  // namespace crsat
