#include "src/baseline/fast_path.h"

#include <utility>

#include "src/base/degradation.h"
#include "src/baseline/ln_reasoner.h"

namespace crsat {

void FastPathStats::Reset() {
  ln_short_circuits.store(0, std::memory_order_relaxed);
}

FastPathStats& GetFastPathStats() {
  static FastPathStats stats;
  return stats;
}

Result<std::optional<std::vector<bool>>> TryLnSatisfiableClasses(
    const Schema& schema) {
  if (!IncrementalReasoningEnabled()) {
    return std::optional<std::vector<bool>>();
  }
  Result<LnReasoner> baseline = LnReasoner::Create(schema);
  if (!baseline.ok()) {
    if (baseline.status().code() == StatusCode::kInvalidArgument) {
      // Outside the ISA-free fragment; the full pipeline must run.
      return std::optional<std::vector<bool>>();
    }
    return baseline.status();
  }
  CRSAT_ASSIGN_OR_RETURN(std::vector<bool> satisfiable,
                         baseline->SatisfiableClasses());
  GetFastPathStats().ln_short_circuits.fetch_add(1,
                                                 std::memory_order_relaxed);
  return std::optional<std::vector<bool>>(std::move(satisfiable));
}

}  // namespace crsat
