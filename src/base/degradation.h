#ifndef CRSAT_BASE_DEGRADATION_H_
#define CRSAT_BASE_DEGRADATION_H_

#include <atomic>
#include <cstdint>

namespace crsat {

/// The graceful-degradation ladder (DESIGN.md §14).
///
/// Worst-case exponential inputs make fallbacks *normal operation*, not
/// edge cases, so the recovery order is a first-class contract:
///
///   rung 0  incremental   warm-start bases, memoized bounds, pruning
///   rung 1  cold          same algorithms, no carried state
///   rung 2  exact tier    Rational re-solve after SmallRational overflow
///   rung 3  UNKNOWN       honest resource-status refusal, never a guess
///
/// Each rung has one switch. Rung 0 -> 1 is `allow_incremental` below,
/// or the `incremental/force_cold` failpoint. Rung 1 -> 2 is per solve:
/// `SimplexOptions::tier = kExactOnly` (src/lp/simplex.h), or the
/// `lp/fast_tier_overflow` failpoint. Witness tuple assignment doubles
/// its scale at most a fixed 8 times (src/witness/tuple_assignment.cc);
/// `witness/force_rescale` exhausts that budget.
///
/// Dropping a rung must never change a verdict — only cost — and running
/// out of rungs must surface as a resource-limit `Status`
/// (`IsResourceLimitStatus`), which the CLI maps to exit code 3 and the
/// conformance harness treats as benign. The chaos conformance sweep
/// (`crsat_cli conform --chaos-seeds N`) is the proof: under randomized
/// fault schedules every verdict either matches the fault-free run or is
/// such an UNKNOWN, never a flip.

/// The process-wide degradation policy.
struct DegradationPolicy {
  /// Rung 0 permitted (warm starts, memoization, pruning, the LN
  /// short-circuit). The only switch for the incremental fast paths:
  /// every layer asks `IncrementalReasoningEnabled()`, which reads it.
  bool allow_incremental = true;
};

/// Process-wide policy. Reads are lock-free; see ScopedDegradationPolicy
/// for the only supported way to change it.
DegradationPolicy GetDegradationPolicy();

/// Scoped override of the process-wide policy, for tests and the chaos
/// harness. Create and destroy from a single thread outside parallel
/// regions (reads from worker threads are safe; concurrent overrides are
/// not meaningful).
class ScopedDegradationPolicy {
 public:
  explicit ScopedDegradationPolicy(const DegradationPolicy& policy);
  ~ScopedDegradationPolicy();

  ScopedDegradationPolicy(const ScopedDegradationPolicy&) = delete;
  ScopedDegradationPolicy& operator=(const ScopedDegradationPolicy&) =
      delete;

 private:
  DegradationPolicy previous_;
};

/// True when the incremental reasoning fast paths may run: carried
/// warm-start bases (src/lp/simplex.cc), the one-LP support cover
/// (src/lp/homogeneous.cc), bound-dominance memoization
/// (src/reasoner/implication_engine.h), declared-bound expansion pruning
/// (src/expansion/expansion.cc) and the Lenzerini–Nobili route for
/// ISA-free schemas (`command::DecideClasses`, src/command/command.h).
///
/// False when the policy's `allow_incremental` is off or the
/// `incremental/force_cold` failpoint fires (checked first, so the chaos
/// harness can force cold under any policy). Verdicts are identical
/// either way — the fast paths are exact — so the cold path exists as the
/// reference the incremental-vs-cold differential tests compare against.
bool IncrementalReasoningEnabled();

/// Process-wide counters recording every rung transition actually taken.
/// Exposed in `crsat_cli --json` (object "recovery") and alongside
/// `SimplexStats` in the conformance stats block; the failpoint tests
/// assert on deltas to prove each seam really degraded instead of
/// silently succeeding.
struct RecoveryStats {
  /// Rung 0 -> 1: carried warm-start basis rejected; solve fell back to
  /// cold phase 1.
  std::atomic<std::uint64_t> warm_start_fallbacks{0};
  /// Rung 0 -> 1: support-cover LP failed; expansion fell back to
  /// per-group probe rounds.
  std::atomic<std::uint64_t> cover_fallbacks{0};
  /// Rung 1 -> 2: SmallRational tier overflowed (or was skipped by
  /// policy/fault); solve re-ran on exact Rational.
  std::atomic<std::uint64_t> tier_fallbacks{0};
  /// Witness stage: aligned fast path failed; min-congestion max-flow
  /// refinement ran.
  std::atomic<std::uint64_t> witness_flow_refinements{0};
  /// Witness stage: duplicate tuples forced a scale doubling.
  std::atomic<std::uint64_t> witness_rescales{0};
  /// A std::bad_alloc was caught at a tier boundary and converted to
  /// kResourceExhausted (rung 3) instead of crashing.
  std::atomic<std::uint64_t> bad_alloc_conversions{0};
  /// ResourceGuard trips observed while converting work to UNKNOWN
  /// (includes injected `guard/trip` fires).
  std::atomic<std::uint64_t> guard_trips{0};

  void Reset() {
    warm_start_fallbacks.store(0, std::memory_order_relaxed);
    cover_fallbacks.store(0, std::memory_order_relaxed);
    tier_fallbacks.store(0, std::memory_order_relaxed);
    witness_flow_refinements.store(0, std::memory_order_relaxed);
    witness_rescales.store(0, std::memory_order_relaxed);
    bad_alloc_conversions.store(0, std::memory_order_relaxed);
    guard_trips.store(0, std::memory_order_relaxed);
  }
};

/// The process-wide recovery record. Counters are relaxed atomics;
/// increments from worker threads are safe.
RecoveryStats& GetRecoveryStats();

}  // namespace crsat

#endif  // CRSAT_BASE_DEGRADATION_H_
