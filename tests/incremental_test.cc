// The incremental-vs-cold differential contract (DESIGN.md §13): every
// fast path behind `IncrementalReasoningEnabled()` — carried warm-start
// bases, the one-LP maximal-support cover, bound-dominance memoization,
// disjointness-driven expansion pruning, and the Lenzerini–Nobili ISA-free
// short-circuit — is an *acceleration*, never a semantic change. This
// suite pins that down three ways: a 100-schema differential sweep
// (incremental and forced-cold implication reports must be byte-identical,
// at 1, 2, and 8 threads), unit tests for the dominance lattice's
// monotonicity (the closure directions are where an off-by-one silently
// flips verdicts), and accounting invariants for the warm-start counters
// (hits + misses = attempts; everything zero when the gate is off).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/command/command.h"
#include "src/crsat.h"
#include "tests/test_schemas.h"

namespace crsat {
namespace {

// The policy with only the incremental rung set: `false` is the
// forced-cold reference path, `true` the default fast paths.
DegradationPolicy Incremental(bool enabled) {
  DegradationPolicy policy;
  policy.allow_incremental = enabled;
  return policy;
}

RandomSchemaParams SweepParams(std::uint32_t seed) {
  RandomSchemaParams params;
  params.seed = seed;
  params.num_classes = 4;
  params.num_relationships = 2;
  params.isa_density = 0.3;
  params.refinement_probability = 0.4;
  // A third of the sweep carries disjointness groups so the
  // derived-disjointness expansion pruning sees real work.
  if (seed % 3 == 0) {
    params.num_disjointness_groups = 1;
    params.disjointness_group_size = 2;
  }
  // A handful of ISA-free schemas exercise the LN short-circuit.
  if (seed % 10 == 0) {
    params.isa_density = 0.0;
    params.refinement_probability = 0.0;
  }
  return params;
}

// Schemas for the full-report differential. The implication report pays a
// binary search of satisfiability probes per (class, role) row, and a
// 4-class refined schema can push one report past a minute — so the
// full-digest subset runs on smaller schemas than the verdict sweep.
RandomSchemaParams ReportParams(std::uint32_t seed) {
  RandomSchemaParams params = SweepParams(seed);
  params.num_classes = 3;
  params.num_relationships = 1;
  return params;
}

// Observables of one analysis: class verdicts always, plus — for seeds
// where `full` is set — the complete implication report. The report is the
// expensive half (a binary search of satisfiability probes per row), so the
// sweep runs it on a deterministic subset and pins the cheap verdict digest
// on every seed.
std::string AnalysisDigest(const Schema& schema, bool full) {
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  std::string digest;
  // Held in a local: a range-for over `value()` of the temporary Result
  // would read it after its lifetime ended.
  const std::vector<bool> classes = checker.SatisfiableClasses().value();
  for (bool flag : classes) {
    digest += flag ? '1' : '0';
  }
  if (!full) {
    return digest;
  }
  digest += "|";
  std::vector<ImpliedCardinalityRow> rows =
      BuildImpliedCardinalityReport(schema, /*search_limit=*/4).value();
  for (const ImpliedCardinalityRow& row : rows) {
    digest += std::to_string(row.cls.value) + ":" +
              std::to_string(row.rel.value) + ":" +
              std::to_string(row.role.value) + "=" +
              std::to_string(row.implied_min) + "..";
    digest += row.implied_max.has_value() ? std::to_string(*row.implied_max)
                                          : std::string("inf");
    digest += row.vacuous ? "v;" : ";";
  }
  return digest;
}

class IncrementalDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalDifferentialTest, ReportsMatchColdPathAtAnyThreadCount) {
  const std::uint32_t seed = static_cast<std::uint32_t>(GetParam());
  // Full-report digests on every 5th seed (over the smaller report
  // schemas); class-verdict digests on the rest keep the 100-seed sweep
  // inside a tier-1 budget.
  const bool full = seed % 5 == 0;
  Schema schema =
      GenerateRandomSchema(full ? ReportParams(seed) : SweepParams(seed))
          .value();

  std::string cold;
  {
    ScopedDegradationPolicy off(Incremental(false));
    cold = AnalysisDigest(schema, full);
  }
  {
    ScopedDegradationPolicy on(Incremental(true));
    std::string incremental = AnalysisDigest(schema, full);
    EXPECT_EQ(incremental, cold)
        << "seed " << seed << ": incremental fast paths changed a verdict";
  }
  // Thread sweep on a subsample (every run pays ~6 full analyses); the
  // grouping and verdict application are thread-count independent by
  // construction, this pins it.
  if (seed % 10 == 1) {
    for (int threads : {2, 8}) {
      SetGlobalThreadCount(threads);
      ScopedDegradationPolicy on(Incremental(true));
      EXPECT_EQ(AnalysisDigest(schema, full), cold)
          << "seed " << seed << " diverges at " << threads << " threads";
    }
    SetGlobalThreadCount(1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferentialTest,
                         ::testing::Range(1, 101));

// --- Dominance lattice monotonicity ---------------------------------------

TEST(BoundDominanceCacheTest, ImpliedMinIsDownwardClosed) {
  BoundDominanceCache cache;
  cache.RecordMin(5, /*implied=*/true);
  EXPECT_EQ(cache.LookupMin(5), std::optional<bool>(true));
  EXPECT_EQ(cache.LookupMin(3), std::optional<bool>(true));
  EXPECT_EQ(cache.LookupMin(1), std::optional<bool>(true));
  // Above the implied frontier nothing is decided.
  EXPECT_EQ(cache.LookupMin(6), std::nullopt);
}

TEST(BoundDominanceCacheTest, RefutedMinIsUpwardClosed) {
  BoundDominanceCache cache;
  cache.RecordMin(5, /*implied=*/false);
  EXPECT_EQ(cache.LookupMin(5), std::optional<bool>(false));
  EXPECT_EQ(cache.LookupMin(7), std::optional<bool>(false));
  // Below the refuted frontier nothing is decided.
  EXPECT_EQ(cache.LookupMin(4), std::nullopt);
}

TEST(BoundDominanceCacheTest, ImpliedMaxIsUpwardClosed) {
  BoundDominanceCache cache;
  cache.RecordMax(5, /*implied=*/true);
  EXPECT_EQ(cache.LookupMax(5), std::optional<bool>(true));
  EXPECT_EQ(cache.LookupMax(9), std::optional<bool>(true));
  EXPECT_EQ(cache.LookupMax(4), std::nullopt);
}

TEST(BoundDominanceCacheTest, RefutedMaxIsDownwardClosed) {
  BoundDominanceCache cache;
  cache.RecordMax(5, /*implied=*/false);
  EXPECT_EQ(cache.LookupMax(5), std::optional<bool>(false));
  EXPECT_EQ(cache.LookupMax(2), std::optional<bool>(false));
  EXPECT_EQ(cache.LookupMax(6), std::nullopt);
}

TEST(BoundDominanceCacheTest, FrontiersTightenMonotonically) {
  BoundDominanceCache cache;
  cache.RecordMin(2, /*implied=*/true);
  cache.RecordMin(8, /*implied=*/false);
  // The undecided band is (2, 8); probing inside it narrows the band
  // without ever contradicting an earlier answer.
  EXPECT_EQ(cache.LookupMin(5), std::nullopt);
  cache.RecordMin(5, /*implied=*/true);
  EXPECT_EQ(cache.LookupMin(2), std::optional<bool>(true));
  EXPECT_EQ(cache.LookupMin(5), std::optional<bool>(true));
  EXPECT_EQ(cache.LookupMin(6), std::nullopt);
  EXPECT_EQ(cache.LookupMin(8), std::optional<bool>(false));
}

// --- Warm-start accounting -------------------------------------------------

LinearSystem TwoVarSystem() {
  LinearSystem system;
  VarId x = system.AddVariable("x", /*nonnegative=*/true);
  VarId y = system.AddVariable("y", /*nonnegative=*/true);
  LinearExpr sum = LinearExpr::Var(x);
  sum.AddTerm(y, Rational(1));
  sum.AddConstant(Rational(-4));
  system.AddLe(std::move(sum));  // x + y <= 4
  return system;
}

TEST(WarmStartAccountingTest, HitsPlusMissesEqualsAttempts) {
  ScopedDegradationPolicy on(Incremental(true));
  GetSimplexStats().Reset();
  LinearSystem system = TwoVarSystem();
  LinearExpr objective = LinearExpr::Var(0);

  WarmStartBasis carry;
  SimplexOptions first;
  first.export_basis = &carry;
  ASSERT_TRUE(SimplexSolver::SolveWith(system, objective, /*maximize=*/true,
                                       first)
                  .ok());
  ASSERT_FALSE(carry.empty());

  SimplexOptions second;
  second.warm_start = &carry;
  ASSERT_TRUE(SimplexSolver::SolveWith(system, objective, /*maximize=*/true,
                                       second)
                  .ok());

  const SimplexStats& stats = GetSimplexStats();
  EXPECT_EQ(stats.solves.load(), 2u);
  // Only the second solve attempted reuse; exactly one of hits/misses.
  EXPECT_EQ(stats.warm_start_hits.load() + stats.warm_start_misses.load(),
            1u);
  EXPECT_EQ(stats.warm_start_hits.load(), 1u);
}

TEST(WarmStartAccountingTest, GateOffMeansNoWarmStartAttempts) {
  ScopedDegradationPolicy off(Incremental(false));
  GetSimplexStats().Reset();
  LinearSystem system = TwoVarSystem();
  LinearExpr objective = LinearExpr::Var(0);

  WarmStartBasis carry;
  SimplexOptions first;
  first.export_basis = &carry;
  ASSERT_TRUE(SimplexSolver::SolveWith(system, objective, /*maximize=*/true,
                                       first)
                  .ok());

  SimplexOptions second;
  second.warm_start = &carry;  // Must be ignored while the gate is off.
  ASSERT_TRUE(SimplexSolver::SolveWith(system, objective, /*maximize=*/true,
                                       second)
                  .ok());

  const SimplexStats& stats = GetSimplexStats();
  EXPECT_EQ(stats.warm_start_hits.load(), 0u);
  EXPECT_EQ(stats.warm_start_misses.load(), 0u);
}

// --- One switch: the policy gates every fast path -------------------------

// An ISA edge C0 <= C1 under cardinality pressure (the shape of
// bench_parallel's ChainSchema), plus a sibling S <= C1 whose (0, 1)
// bound on R.U can never meet C0's minimum of 2, so the expansion derives
// C0 and S disjoint and prunes their common compounds.
Schema ChainWithConflictingSibling() {
  SchemaBuilder builder;
  builder.AddClass("C0");
  builder.AddClass("C1");
  builder.AddIsa("C0", "C1");
  builder.AddClass("S");
  builder.AddIsa("S", "C1");
  builder.AddClass("T");
  builder.AddRelationship("R", {{"U", "C1"}, {"V", "T"}});
  builder.SetCardinality("C1", "R", "U", {1, 4});
  builder.SetCardinality("C0", "R", "U", {2, 3});
  builder.SetCardinality("S", "R", "U", {0, 1});
  builder.SetCardinality("T", "R", "V", {1, 1});
  return builder.Build().value();
}

struct FastPathCounters {
  bool ln_route = false;
  std::uint64_t dominance_hits = 0;
  std::uint64_t pruned_subtrees = 0;
  std::uint64_t warm_start_hits = 0;
};

// The CLI's `check` on an ISA-free schema and `report` on the chain.
FastPathCounters RunFastPathWork() {
  GetImplicationStats().Reset();
  GetExpansionStats().Reset();
  GetSimplexStats().Reset();
  FastPathCounters counters;
  Result<command::ClassVerdicts> decided = command::DecideClasses(
      testing::EmploymentSchema(), /*guard=*/nullptr,
      /*allow_ln_route=*/true);
  EXPECT_TRUE(decided.ok());
  // The Lenzerini–Nobili route leaves no checker behind.
  counters.ln_route = decided.ok() && decided->checker == nullptr;
  EXPECT_TRUE(BuildImpliedCardinalityReport(ChainWithConflictingSibling(),
                                            /*search_limit=*/4)
                  .ok());
  counters.dominance_hits = GetImplicationStats().dominance_hits.load();
  counters.pruned_subtrees = GetExpansionStats().pruned_subtrees.load();
  counters.warm_start_hits = GetSimplexStats().warm_start_hits.load();
  return counters;
}

TEST(IncrementalSwitchTest, PolicyTurnsOffEveryFastPath) {
  const FastPathCounters incremental = RunFastPathWork();
  EXPECT_TRUE(incremental.ln_route);
  EXPECT_GT(incremental.dominance_hits, 0u);
  EXPECT_GT(incremental.pruned_subtrees, 0u);
  EXPECT_GT(incremental.warm_start_hits, 0u);

  ScopedDegradationPolicy off(Incremental(false));
  const FastPathCounters cold = RunFastPathWork();
  EXPECT_FALSE(cold.ln_route);
  EXPECT_EQ(cold.dominance_hits, 0u);
  EXPECT_EQ(cold.pruned_subtrees, 0u);
  EXPECT_EQ(cold.warm_start_hits, 0u);
}

// --- Maximal support: one-LP cover vs probe rounds -------------------------

TEST(SupportCoverTest, CoverLpMatchesProbeRoundsOnGeneratedSchemas) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    Schema schema = GenerateRandomSchema(SweepParams(seed)).value();
    Expansion expansion = Expansion::Build(schema).value();

    std::vector<bool> cold_positive;
    {
      ScopedDegradationPolicy off(Incremental(false));
      SatisfiabilityChecker checker(expansion);
      cold_positive = checker.Support().value().positive;
    }
    ScopedDegradationPolicy on(Incremental(true));
    SatisfiabilityChecker checker(expansion);
    AcceptableSupport support = checker.Support().value();
    EXPECT_EQ(support.positive, cold_positive) << "seed " << seed;
    // The witness must certify its own support: positive exactly where
    // the support says so (the cover LP's x* and the folded probe
    // witnesses differ in values, never in support).
    ASSERT_EQ(support.witness.size(), support.positive.size());
    for (size_t v = 0; v < support.positive.size(); ++v) {
      EXPECT_EQ(support.witness[v].IsPositive(), support.positive[v])
          << "seed " << seed << " var " << v;
    }
  }
}

// --- Pinned solver counts ---------------------------------------------------

// bench_parallel's ISA chain: C0 <= ... <= C(depth-1), with cardinality
// pressure on R.U at both ends of the chain.
Schema IsaChain(int depth) {
  SchemaBuilder builder;
  for (int i = 0; i < depth; ++i) {
    builder.AddClass("C" + std::to_string(i));
  }
  for (int i = 0; i + 1 < depth; ++i) {
    builder.AddIsa("C" + std::to_string(i), "C" + std::to_string(i + 1));
  }
  builder.AddClass("T");
  builder.AddRelationship(
      "R", {{"U", "C" + std::to_string(depth - 1)}, {"V", "T"}});
  builder.SetCardinality("C" + std::to_string(depth - 1), "R", "U", {1, 4});
  builder.SetCardinality("C0", "R", "U", {2, 3});
  builder.SetCardinality("T", "R", "V", {1, 1});
  return builder.Build().value();
}

// The counts the dense-tableau kernel recorded for this report. The
// pivot rule, the warm-start carry and the probe order fix them at any
// thread count, so a kernel change that moves the pivot sequence fails
// here.
TEST(PinnedSimplexCountsTest, DepthFourChainReport) {
  const int saved_threads = GlobalThreadCount();
  const Schema schema = IsaChain(4);
  for (int threads : {1, 2}) {
    SetGlobalThreadCount(threads);
    GetSimplexStats().Reset();
    ASSERT_TRUE(BuildImpliedCardinalityReport(schema).ok());
    const SimplexStats& stats = GetSimplexStats();
    EXPECT_EQ(stats.solves.load(), 33u) << threads << " threads";
    EXPECT_EQ(stats.pivots.load(), 3630u) << threads << " threads";
    EXPECT_EQ(stats.warm_start_hits.load(), 10u) << threads << " threads";
  }
  SetGlobalThreadCount(saved_threads);
}

}  // namespace
}  // namespace crsat
