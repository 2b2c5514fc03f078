// The benchmark's span recorder. Spans are recorded only by the
// benchmark's own code, around its calls into the library's public entry
// points; nothing inside src/ is instrumented. Each span carries its
// name, start, end, parent span and op id, plus (optionally) the delta
// of the process-wide counters across the span. Spans are kept in memory
// and written at exit as Chrome trace-event JSON (viewable in Perfetto
// or chrome://tracing).
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common.h"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< Index into the span list; -1 for a root.
  std::int64_t op = -1;
  int thread = 0;
  bool has_counters = false;
  Counters counters;  ///< Delta across the span (when has_counters).
};

/// Per span name: how often it ran, its inclusive and self time (self =
/// duration minus the time covered by its direct children), and the
/// summed counter deltas.
struct LayerTotals {
  std::uint64_t count = 0;
  double inclusive_ms = 0;
  double self_ms = 0;
  Counters counters;
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Op id attached to spans opened on the calling thread.
  static void SetOp(std::int64_t op);

  int Begin(const char* name, bool with_counters);
  void End(int index);

  /// Self/inclusive totals per span name over every recorded span.
  std::map<std::string, LayerTotals> Aggregate() const;
  /// Writes the Chrome trace-event JSON; false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;
  std::size_t size() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<Counters> open_counters_;  // Start snapshot per span.
};

/// RAII span; a no-op while tracing is off. Counter deltas are only
/// meaningful around calls that run one at a time in the process.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool with_counters = true);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
