#ifndef CRSAT_REASONER_IMPLICATION_ENGINE_H_
#define CRSAT_REASONER_IMPLICATION_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/result.h"
#include "src/cr/schema.h"
#include "src/expansion/expansion.h"
#include "src/lp/simplex.h"

namespace crsat {

/// Process-wide counters for the probe-layer memoization. Same policy as
/// `SimplexStats`: relaxed atomics, exact totals, `Reset()` must not race
/// with running queries.
struct ImplicationStats {
  /// Dominance-cache consultations by `ImpliesMin`/`ImpliesMax` probes
  /// (only counted while `IncrementalReasoningEnabled()`).
  std::atomic<std::uint64_t> dominance_lookups{0};
  /// Subset of `dominance_lookups` answered without an LP solve.
  std::atomic<std::uint64_t> dominance_hits{0};

  /// Zeroes every counter.
  void Reset();
};

/// Returns a mutable reference to the process-wide probe-layer counters.
ImplicationStats& GetImplicationStats();

/// Monotone memo over one triple's probed bounds, exploiting the dominance
/// lattice of cardinality implication: implied-min bounds are downward
/// closed (if `minc >= m` is implied, so is every `m' <= m`) and
/// implied-max bounds are upward closed — so each refutation is likewise
/// monotone on the opposite side (a refuted `minc >= m` refutes every
/// `m' >= m`; a refuted `maxc <= n` refutes every `n' <= n`). Four stored
/// frontiers answer every dominated query without an LP solve. Recorded
/// facts must be sound (true implication verdicts, or declared-bound seeds
/// that hold in every model): then the cache is schedule-independent —
/// whichever concurrent probe records first, every answer equals the LP's.
/// Thread-safe; `CheckAllPartial` probes share one instance.
class BoundDominanceCache {
 public:
  /// The cached verdict for `S |= minc = min`, or nullopt if undominated.
  std::optional<bool> LookupMin(std::uint64_t min);
  /// Records an LP verdict for `minc = min`.
  void RecordMin(std::uint64_t min, bool implied);
  /// The cached verdict for `S |= maxc = max`, or nullopt if undominated.
  std::optional<bool> LookupMax(std::uint64_t max);
  /// Records an LP verdict for `maxc = max`.
  void RecordMax(std::uint64_t max, bool implied);

 private:
  Mutex mutex_;
  // Frontiers; the gaps between them are the undecided band.
  std::uint64_t greatest_implied_min_ CRSAT_GUARDED_BY(mutex_) = 0;
  std::optional<std::uint64_t> least_refuted_min_ CRSAT_GUARDED_BY(mutex_);
  std::optional<std::uint64_t> least_implied_max_ CRSAT_GUARDED_BY(mutex_);
  std::optional<std::uint64_t> greatest_refuted_max_ CRSAT_GUARDED_BY(mutex_);
};

/// One cardinality-implication question against an engine's triple: does
/// the schema imply `minc = bound` (kMin) or `maxc = bound` (kMax)?
struct ImplicationQuery {
  enum class Kind { kMin, kMax };
  Kind kind = Kind::kMin;
  std::uint64_t bound = 0;
};

/// Per-query answer of `CheckAllPartial`: a definite verdict, or `kUnknown`
/// when a resource limit stopped that query's probe before it finished.
struct ImplicationVerdict {
  enum class Outcome { kImplied, kNotImplied, kUnknown };
  Outcome outcome = Outcome::kUnknown;
  /// For `kUnknown`, the limit that interfered (`kDeadlineExceeded`,
  /// `kResourceExhausted`, or `kCancelled`); `kOk` for definite verdicts.
  StatusCode reason = StatusCode::kOk;

  bool known() const { return outcome != Outcome::kUnknown; }
  bool implied() const { return outcome == Outcome::kImplied; }
};

/// Answers repeated cardinality-implication questions for one
/// `(class, relationship, role)` triple.
///
/// The paper's Section 4 reduction adds a fresh subclass `Cexc <= cls`
/// carrying the candidate bound and asks whether `Cexc` is satisfiable.
/// The expensive part — building the expansion of the extended schema —
/// does not depend on the candidate bound at all (compound-class
/// consistency only looks at ISA/disjointness/covering), so this engine
/// builds the extended schema and its expansion *once* and re-derives only
/// the (cheap) disequation system per probe, via `CardinalityOverride`.
/// Gallop/bisection queries (`ImplicationChecker::TightestImplied{Min,Max}`)
/// and repair search go through here.
class CardinalityImplicationEngine {
 public:
  /// Validates the triple (role must belong to `rel`, `cls` must be a
  /// subclass of the role's primary class) and builds the extended
  /// expansion. The schema is copied; the engine is self-contained.
  static Result<CardinalityImplicationEngine> Create(
      const Schema& schema, ClassId cls, RelationshipId rel, RoleId role,
      const ExpansionOptions& options = {});

  /// True iff `S |= minc(cls, rel, role) = min`.
  Result<bool> ImpliesMin(std::uint64_t min) const;

  /// True iff `S |= maxc(cls, rel, role) = max`.
  Result<bool> ImpliesMax(std::uint64_t max) const;

  /// Batched form: answers every query, fanning the (mutually independent)
  /// satisfiability probes across the global thread pool. Each probe
  /// re-derives only the cheap disequation system against the shared
  /// expansion, so the batch scales near-linearly with cores. Verdicts are
  /// returned in query order and are identical to issuing the queries
  /// serially; on any probe error the first error (in query order) is
  /// returned.
  Result<std::vector<bool>> CheckAll(
      const std::vector<ImplicationQuery>& queries) const;

  /// Resource-aware batched form. Like `CheckAll`, but when the engine's
  /// expansion carries a `ResourceGuard` (see `ExpansionOptions::guard`)
  /// and it trips mid-batch, the call *succeeds* and reports per-query
  /// verdicts: queries whose probes finished before the trip keep their
  /// definite answers; unfinished ones come back `kUnknown` with the
  /// tripped limit as `reason`. Genuine (non-resource) probe errors still
  /// fail the whole call with the first error in query order. Definite
  /// verdicts are identical to `CheckAll`'s at any thread count.
  Result<std::vector<ImplicationVerdict>> CheckAllPartial(
      const std::vector<ImplicationQuery>& queries) const;

  /// True iff `cls` itself is satisfiable in the base schema (bounds are
  /// vacuously implied otherwise).
  Result<bool> IsBaseClassSatisfiable() const;

  /// Largest implied minimum (see `ImplicationChecker::TightestImpliedMin`;
  /// requires a satisfiable class).
  Result<std::uint64_t> TightestMin() const;

  /// Smallest implied maximum up to `search_limit`, or nullopt.
  Result<std::optional<std::uint64_t>> TightestMax(
      std::uint64_t search_limit = 64) const;

 private:
  CardinalityImplicationEngine() = default;

  // Satisfiability of Cexc under an override bound on it. `cache` threads
  // warm-start bases between probes: successive probes alternate between a
  // handful of system shapes (only the overridden bound's coefficients
  // change within a shape), so a previous probe's optimal basis is reused
  // when it pivots in feasible instead of a cold phase 1. Serial queries
  // pass `&carry_cache_`; `CheckAll` gives each concurrent probe a private
  // copy of the current cache so verdicts stay independent of scheduling.
  Result<bool> AuxiliarySatisfiableWith(Cardinality cardinality,
                                        WarmStartBasisCache* cache) const;

  Result<bool> ImpliesMinWith(std::uint64_t min,
                              WarmStartBasisCache* cache) const;
  Result<bool> ImpliesMaxWith(std::uint64_t max,
                              WarmStartBasisCache* cache) const;

  // The extended schema and its expansion; unique_ptr keeps the expansion's
  // schema pointer stable across moves.
  std::shared_ptr<const Schema> extended_schema_;
  std::shared_ptr<const Expansion> expansion_;
  ClassId aux_class_;
  ClassId base_class_;
  RelationshipId rel_;
  RoleId role_;
  std::vector<int> aux_targets_;   // Compound classes containing Cexc.
  std::vector<int> base_targets_;  // Compound classes containing cls.
  // Warm-start bases carried across this engine's serial probes (gallop /
  // bisection). Queries on one engine are not safe to issue concurrently
  // from outside — use `CheckAll` for that; it snapshots this cache.
  mutable WarmStartBasisCache carry_cache_;
  // The triple's dominance memo, shared by serial and batched probes
  // (thread-safe; behind unique_ptr so the engine stays movable). Seeded
  // in `Create` from the declared bounds of `cls`'s superclasses — sound,
  // since declared constraints hold in every model. Consulted only while
  // `IncrementalReasoningEnabled()`.
  std::unique_ptr<BoundDominanceCache> dominance_;
};

}  // namespace crsat

#endif  // CRSAT_REASONER_IMPLICATION_ENGINE_H_
