#include "src/base/degradation.h"

#include "src/base/failpoint.h"

namespace crsat {

namespace {

// The policy decomposed into lock-free cells so hot paths (SolveWith,
// AssignTuples, IncrementalReasoningEnabled) can read one field without
// a mutex.
std::atomic<int> g_allow_incremental{1};
std::atomic<int> g_allow_fast_tier{1};
std::atomic<int> g_max_witness_rescales{8};

void StorePolicy(const DegradationPolicy& policy) {
  g_allow_incremental.store(policy.allow_incremental ? 1 : 0,
                            std::memory_order_release);
  g_allow_fast_tier.store(policy.allow_fast_tier ? 1 : 0,
                          std::memory_order_release);
  g_max_witness_rescales.store(policy.max_witness_rescales,
                               std::memory_order_release);
}

}  // namespace

DegradationPolicy GetDegradationPolicy() {
  DegradationPolicy policy;
  policy.allow_incremental =
      g_allow_incremental.load(std::memory_order_acquire) != 0;
  policy.allow_fast_tier =
      g_allow_fast_tier.load(std::memory_order_acquire) != 0;
  policy.max_witness_rescales =
      g_max_witness_rescales.load(std::memory_order_acquire);
  return policy;
}

ScopedDegradationPolicy::ScopedDegradationPolicy(
    const DegradationPolicy& policy)
    : previous_(GetDegradationPolicy()) {
  StorePolicy(policy);
}

ScopedDegradationPolicy::~ScopedDegradationPolicy() { StorePolicy(previous_); }

bool IncrementalReasoningEnabled() {
  // Injected incremental -> cold degradation (rung 0 -> 1): every layer
  // that consults this gate falls back to its cold reference path for
  // the queries on which the schedule fires.
  return !CRSAT_FAILPOINT("incremental/force_cold") &&
         g_allow_incremental.load(std::memory_order_acquire) != 0;
}

RecoveryStats& GetRecoveryStats() {
  static RecoveryStats* stats = new RecoveryStats;
  return *stats;
}

}  // namespace crsat
