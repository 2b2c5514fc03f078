// Shared pieces of the crsat benchmark program: command-line options,
// the process-wide counter snapshot, latency statistics and the one-line
// JSON result crbench prints last.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/cr/schema.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}
inline double MillisSince(Clock::time_point start) {
  return MillisBetween(start, Clock::now());
}

/// The seed every committed reference file was produced at.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetupRounds = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  /// Directory holding the committed references and curated schemas
  /// (perfbench/ in the checkout).
  std::string bench_dir = "perfbench";
  /// Scratch directory for trace files and CLI parity outputs.
  std::string out_dir = ".bench_build";
  /// Rewrite the committed reference for this workload instead of
  /// checking against it (only meaningful at the default seed).
  bool regen_reference = false;
  /// The one-shot CLI binary, for re-recording the daemon reference.
  std::string cli;
};

/// One end-to-end or per-layer metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports back to main().
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::vector<Metric> metrics;
  /// Printed with the metrics but not part of the result line (aliases
  /// under the percentile's own name, and zero-valued checks).
  std::vector<Metric> info;
  /// Human-readable lines printed to stderr before the result line.
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a wrong output; any mismatch fails the run.
  void Mismatch(const std::string& what);
};

/// Snapshot of every process-wide counter (SimplexStats,
/// ImplicationStats, ExpansionStats, RecoveryStats). The counters are
/// global, so a delta is attributable only around calls that run one at
/// a time.
struct Counters {
  enum Index {
    kSolves,
    kPivots,
    kPhase1Pivots,
    kFastPivots,
    kTierFallbacks,
    kWarmStartHits,
    kWarmStartMisses,
    kDualPivots,
    kIncrementalHits,
    kDominanceLookups,
    kDominanceHits,
    kPrunedSubtrees,
    kWarmStartFallbacks,
    kCoverFallbacks,
    kGuardTrips,
    kBadAllocConversions,
    kCount
  };
  std::uint64_t value[kCount] = {};

  static Counters Take();
  static const char* Name(int index);
  Counters operator-(const Counters& other) const;
  Counters& operator+=(const Counters& other);
  std::uint64_t operator[](Index index) const { return value[index]; }
};

/// One slice of a timed window: a pass over the corpus, a fixed stretch
/// of the daemon's closed loop, or the whole window.
struct Slice {
  double seconds = 0;
  std::vector<double> latencies_ms;
  std::vector<double> light_ms;  ///< Latencies of the light work.
};

/// Appends the end-to-end metrics of an untraced run: each is computed
/// per slice and the median over the slices is reported, so one slow
/// stretch of a shared host does not move it. `tail_fraction` is the
/// workload's tail percentile for `latency_tail_ms` (the highest with at
/// least ten samples beyond it in a slice; 1.0 is the slowest op),
/// `light_fraction` the one for `light_tail_ms`, and `tail_label` names
/// the tail ("p90", "p99", "max") for the human-readable aliases.
void AddEndToEnd(RunResult* result, const std::vector<double>& setups_s,
                 const std::vector<Slice>& slices, double tail_fraction,
                 double light_fraction, const std::string& tail_label);

/// Harrell-Davis estimate of a percentile (fraction in (0, 1); 1 gives
/// the maximum); 0 for an empty sample.
double Percentile(std::vector<double> values, double fraction);

/// Median of a sample (mean of the middle pair for even sizes).
double Median(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// 64-bit FNV-1a, for output digests.
std::uint64_t Fnv1a(const std::string& text, std::uint64_t hash = 1469598103934665603ULL);

/// Reads a whole file; returns false when it cannot be opened.
bool ReadFile(const std::string& path, std::string* out);
bool WriteFile(const std::string& path, const std::string& text);

/// Renders `schema` as DSL text with every class, relationship and role
/// renamed through the given tables (indexed by the original ids).
/// Declaration order is kept, so ids are unchanged when parsed back.
std::string RenderSchema(const crsat::Schema& schema, const std::string& name,
                         const std::vector<std::string>& class_names,
                         const std::vector<std::string>& rel_names,
                         const std::vector<std::string>& role_names);

/// `count` distinct identifiers `<prefix><letter><letter>` drawn from `rng`.
std::vector<std::string> SeededNames(std::mt19937_64& rng, const std::string& prefix,
                                     int count);

/// A seeded permutation of 0..n-1.
std::vector<int> SeededPermutation(std::mt19937_64& rng, int n);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
