#ifndef CRSAT_LP_SIMPLEX_H_
#define CRSAT_LP_SIMPLEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/result.h"
#include "src/lp/linear_system.h"

namespace crsat {

class ResourceGuard;

/// Outcome classification of an LP solve.
enum class LpOutcome {
  /// A feasible (and, when optimizing, optimal) assignment was found.
  kOptimal,
  /// No assignment satisfies the constraints.
  kInfeasible,
  /// Feasible, but the objective can be improved without bound.
  kUnbounded,
};

/// Result of an LP solve.
struct LpResult {
  LpOutcome outcome = LpOutcome::kInfeasible;
  /// One value per system variable; meaningful when `outcome == kOptimal`.
  std::vector<Rational> values;
  /// Objective value at `values`; zero for pure feasibility checks.
  Rational objective;
};

/// Cumulative counters for diagnosing solver behaviour. Process-wide and
/// safe to update from concurrent solves (relaxed atomics: totals are
/// exact, momentary reads may be mid-solve). `Reset()` is for benchmarks
/// and must not race with running solves.
///
/// Thread-safety annotation policy (src/base/annotations.h): every field
/// is its own `std::atomic` capability, so no `CRSAT_GUARDED_BY` mutex is
/// involved — the type system already forbids unsynchronized access, and
/// Clang `-Wthread-safety` has nothing further to prove here. Keep it
/// that way: adding a non-atomic field to this struct would require a
/// `Mutex` + `CRSAT_GUARDED_BY` or it will race under TSan.
struct SimplexStats {
  /// Total `Solve`/`SolveWith` calls.
  std::atomic<std::uint64_t> solves{0};
  /// Simplex iterations across both tiers, including those of fast-tier
  /// attempts later abandoned to overflow.
  std::atomic<std::uint64_t> pivots{0};
  /// Subset of `pivots` spent in phase 1.
  std::atomic<std::uint64_t> phase1_pivots{0};
  /// Solves completed entirely on the int64 fast tier.
  std::atomic<std::uint64_t> fast_solves{0};
  /// Subset of `pivots` performed by *completed* fast-tier solves.
  std::atomic<std::uint64_t> fast_pivots{0};
  /// Fast-tier attempts abandoned (overflow or unrepresentable input),
  /// each followed by an exact-tier solve.
  std::atomic<std::uint64_t> tier_fallbacks{0};
  /// Solves that adopted a caller-provided basis: it pivoted in
  /// primal-feasible, so phase 1 was skipped or continued from it.
  std::atomic<std::uint64_t> warm_start_hits{0};
  /// Warm-start attempts that ended in a cold phase 1: layout mismatch,
  /// fast-tier overflow during pivot-in, or a basis that pivoted in
  /// primal-infeasible. Exactly one of hits/misses is recorded per solve
  /// that was handed a non-empty basis, so hits + misses = attempts.
  std::atomic<std::uint64_t> warm_start_misses{0};
  /// Always 0, read by perfbench until its next change.
  std::atomic<std::uint64_t> dual_pivots{0};
  /// Always 0, read by perfbench until its next change.
  std::atomic<std::uint64_t> incremental_hits{0};
  /// Wall time in nanoseconds, summed over solves (and over threads when
  /// solves run concurrently), spent building the tableau layout and the
  /// per-tier tableaus, ...
  std::atomic<std::uint64_t> layout_ns{0};
  /// ... pivoting carried and crash bases in, ...
  std::atomic<std::uint64_t> pivot_in_ns{0};
  /// ... in phase 1, ...
  std::atomic<std::uint64_t> phase1_ns{0};
  /// ... and in phase 2 plus value extraction. Timing varies run to run,
  /// so these stay out of every deterministic output (`check --json`).
  std::atomic<std::uint64_t> phase2_ns{0};

  /// Zeroes every counter.
  void Reset();
};

/// Returns a mutable reference to the process-wide solver counters.
SimplexStats& GetSimplexStats();

/// A feasible basis exported from a completed solve, reusable to skip
/// phase 1 on later solves of a system with the *same shape* (identical
/// variables, constraint count, and per-row senses — e.g. successive
/// support probes that differ only in one row's coefficients). Opaque to
/// callers; validated structurally before reuse, and rejected bases simply
/// cost one cold phase 1.
struct WarmStartBasis {
  std::vector<int> basis;  // Basic column per tableau row.
  int num_columns = 0;     // Column-layout fingerprint.

  bool empty() const { return basis.empty(); }
};

/// A small shape-keyed store of exported bases. Successive reasoner probes
/// alternate between a handful of system shapes (the pinned-out variable
/// set varies with the probed bound and the fixpoint iteration), so a
/// single carried `WarmStartBasis` thrashes: each differently-shaped solve
/// overwrites the carry the next same-shaped solve needed. Keying by
/// (variable count, constraint count) lets every shape family warm-start
/// within itself; a stored basis that no longer pivots in feasible costs
/// one cold phase 1. Thread-compatible, not thread-safe:
/// confine a cache to one thread, and give concurrent probes private
/// copies (see `CardinalityImplicationEngine::CheckAllPartial`).
class WarmStartBasisCache {
 public:
  /// The stored basis for this shape, or nullptr. The pointer is
  /// invalidated by the next non-const call.
  const WarmStartBasis* Lookup(int num_variables, int num_constraints);

  /// Stores (or replaces) the basis for this shape, evicting the least
  /// recently used entry when full. Empty bases are ignored.
  void Store(int num_variables, int num_constraints, WarmStartBasis basis);

  bool empty() const { return entries_.empty(); }

 private:
  struct Entry {
    int num_variables = 0;
    int num_constraints = 0;
    WarmStartBasis basis;
  };
  static constexpr std::size_t kMaxEntries = 8;
  std::vector<Entry> entries_;  // Most recently used at the back.
};

/// Knobs for a single solve.
struct SimplexOptions {
  enum class Tier {
    /// Try the overflow-checked int64 tier first, fall back to exact
    /// `Rational` pivoting when any value leaves the representable range.
    /// Verdicts are exact either way (the fast tier is exact-or-flagged).
    kTwoTier,
    /// Exact `Rational` pivoting only (reference behaviour; used by the
    /// cross-tier property tests).
    kExactOnly,
  };
  Tier tier = Tier::kTwoTier;
  /// When non-null and structurally compatible, the solve pivots into this
  /// basis and skips phase 1. The basis is adopted if it pivots in
  /// primal-feasible and rejected otherwise: a layout mismatch, a fast-tier
  /// overflow, or a negative right-hand side after pivot-in falls back to a
  /// cold phase 1. Ignored entirely when `IncrementalReasoningEnabled()` is
  /// false (src/base/degradation.h) — the forced-cold reference path.
  const WarmStartBasis* warm_start = nullptr;
  /// When non-null, receives the final basis of an optimal solve.
  WarmStartBasis* export_basis = nullptr;
  /// Optional crash basis: structural variables to pivot into the initial
  /// basis when no carried basis applied (absent or rejected). Callers use
  /// this for variables they KNOW form a cheap feasible basis — e.g. the
  /// per-row cover variables of the maximal-support LP, whose unit columns
  /// evict every artificial in one pivot each — turning phase 1 into a
  /// no-op. Purely an acceleration: a crash that does not land feasible
  /// falls through to the ordinary cold phase 1.
  const std::vector<VarId>* crash_vars = nullptr;
  /// Optional resource guard (src/base/resource_guard.h), polled once per
  /// pivot. A tripped guard aborts the solve — including the exact-tier
  /// fallback — and `SolveWith` returns the guard's trip status
  /// (`kDeadlineExceeded` / `kResourceExhausted` / `kCancelled`).
  /// The tableau's stored nonzeros are charged against the guard's memory
  /// budget for the duration of the solve, and the charge rises with
  /// fill-in.
  ResourceGuard* guard = nullptr;
};

/// Exact two-phase primal simplex with Bland's anti-cycling rule and a
/// two-tier arithmetic scheme.
///
/// Pivoting runs on an overflow-checked `int64` rational fast tier first;
/// any value that leaves the representable range raises a sticky flag and
/// the solve transparently restarts on exact `Rational` (BigInt-backed)
/// arithmetic. Both tiers are exact — the fast tier either computes the
/// same numbers the exact tier would or abstains — so `kInfeasible` is
/// always a proof, never a numeric judgement. Strict (`>`) constraints are
/// rejected with `InvalidArgument`; the homogeneous layer
/// (`src/lp/homogeneous.h`) reduces them to non-strict ones before calling
/// in, exploiting that the paper's systems are homogeneous (conic).
class SimplexSolver {
 public:
  /// Minimizes or maximizes `objective` subject to `system`. The objective's
  /// constant term is included in the reported objective value.
  static Result<LpResult> Solve(const LinearSystem& system,
                                const LinearExpr& objective, bool maximize);

  /// Pure feasibility check (zero objective).
  static Result<LpResult> CheckFeasibility(const LinearSystem& system);

  /// `Solve` with explicit tier selection and warm-start plumbing.
  static Result<LpResult> SolveWith(const LinearSystem& system,
                                    const LinearExpr& objective, bool maximize,
                                    const SimplexOptions& options);
};

}  // namespace crsat

#endif  // CRSAT_LP_SIMPLEX_H_
