// The three benchmark workloads and the per-layer report they share.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "src/common.h"
#include "src/trace.h"

namespace perfbench {

/// Each returns 0 after filling `result`, or non-zero when the workload
/// could not be set up (main() then prints no result line).
int RunReportChain(const Options& options, RunResult* result);
int RunCheckCorpus(const Options& options, RunResult* result);
int RunDaemonMix(const Options& options, RunResult* result);

/// Request types of the daemon workload, in per-layer metric order.
inline constexpr const char* kRequestTypes[] = {"parse", "check", "lint",
                                               "implications", "witness"};
inline constexpr int kNumRequestTypes = 5;

/// Everything the per-layer metrics are computed from. Counts and times
/// are normalized per op (a report, a schema, or a request).
struct LayerReport {
  double ops = 0;
  /// Span times per call instead of per op (the daemon workload's layer
  /// spans come from a replay, not from its ops).
  bool per_call = false;
  std::map<std::string, LayerTotals> layers;  ///< Tracer::Aggregate().
  Counters counters;                           ///< Summed over the ops.
  double compound_classes = 0;
  double compound_relationships = 0;
  double witness_individuals = 0;
  double witness_tuples = 0;
  double witness_flow_refinements = 0;
  double witness_scaling_attempts = 0;
  /// Daemon workload only (zero elsewhere).
  double request_p50_ms[kNumRequestTypes] = {};
  double request_p99_ms[kNumRequestTypes] = {};
  double request_mean_ms[kNumRequestTypes] = {};
  double handler_ms[kNumRequestTypes] = {};
  double admitted = 0;
  double shed = 0;
  double response_bytes = 0;
  /// ops_per_s of the untraced half minus that of the traced half.
  double trace_overhead_ops_per_s = 0;
};

/// Appends every per-layer metric, in BENCHMARK.json order.
void AddLayerMetrics(const LayerReport& report, RunResult* result);

/// Span names used across workloads: one per public entry point.
namespace span {
inline constexpr const char* kOp = "bench.op";
inline constexpr const char* kParse = "ParseSchema";
inline constexpr const char* kLint = "RunLint";
inline constexpr const char* kProvablyEmpty = "ComputeProvablyEmpty";
inline constexpr const char* kExpansion = "Expansion::Build";
inline constexpr const char* kSystem = "SystemBuilder::Build";
inline constexpr const char* kSupport = "SatisfiabilityChecker::SatisfiableClasses";
inline constexpr const char* kReport = "BuildImpliedCardinalityReport";
inline constexpr const char* kInteger = "SolveIntegerStage";
inline constexpr const char* kTuples = "AssignTuples";
inline constexpr const char* kCertify = "CertifiedWitness::Certify";
}  // namespace span

/// Writes the trace and a JSON summary (per-layer self time plus
/// `extra` lines) under `options.out_dir`/trace/.
void WriteTraceFiles(const Options& options, const std::string& extra_json);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
