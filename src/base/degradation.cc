#include "src/base/degradation.h"

#include "src/base/failpoint.h"

namespace crsat {

namespace {

// The policy as a lock-free cell, so the hot path
// (IncrementalReasoningEnabled) reads it without a mutex.
std::atomic<int> g_allow_incremental{1};

void StorePolicy(const DegradationPolicy& policy) {
  g_allow_incremental.store(policy.allow_incremental ? 1 : 0,
                            std::memory_order_release);
}

}  // namespace

DegradationPolicy GetDegradationPolicy() {
  DegradationPolicy policy;
  policy.allow_incremental =
      g_allow_incremental.load(std::memory_order_acquire) != 0;
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
