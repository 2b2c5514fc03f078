// The per-layer metrics of a traced run, computed from the benchmark's
// own spans and counter deltas.
#include <filesystem>
#include <iostream>
#include <sstream>

#include "src/workloads.h"

namespace perfbench {

namespace {

// Self time of one span name, per op (or per call).
double SelfPerOp(const LayerReport& report, const char* name) {
  const auto it = report.layers.find(name);
  if (it == report.layers.end()) {
    return 0;
  }
  const double divisor =
      report.per_call ? static_cast<double>(it->second.count) : report.ops;
  return divisor > 0 ? it->second.self_ms / divisor : 0;
}

double Ratio(double numerator, double denominator, double if_empty) {
  return denominator > 0 ? numerator / denominator : if_empty;
}

}  // namespace

void AddLayerMetrics(const LayerReport& report, RunResult* result) {
  const Counters& c = report.counters;
  const double ops = report.ops > 0 ? report.ops : 1;
  auto per_op = [&](Counters::Index index) { return c[index] / ops; };

  result->Add("lp.solves", per_op(Counters::kSolves), "count");
  result->Add("lp.pivots", per_op(Counters::kPivots), "count");
  result->Add("lp.phase1_pivots", per_op(Counters::kPhase1Pivots), "count");
  result->Add("lp.warm_start_hits", per_op(Counters::kWarmStartHits), "count");
  result->Add("lp.warm_start_misses", per_op(Counters::kWarmStartMisses),
              "count");
  result->Add("lp.dual_pivots", per_op(Counters::kDualPivots), "count");
  result->Add("lp.tier_fallbacks", per_op(Counters::kTierFallbacks), "count");
  result->Add("lp.fast_pivot_fraction",
              Ratio(c[Counters::kFastPivots], c[Counters::kPivots], 1.0),
              "ratio");
  result->Add("lp.incremental_hits", per_op(Counters::kIncrementalHits),
              "count");

  result->Add("reasoner.report_ms", SelfPerOp(report, span::kReport), "ms");
  result->Add("reasoner.support_ms", SelfPerOp(report, span::kSupport), "ms");
  result->Add("reasoner.system_build_ms", SelfPerOp(report, span::kSystem),
              "ms");
  result->Add("reasoner.dominance_hit_ratio",
              Ratio(c[Counters::kDominanceHits],
                    c[Counters::kDominanceLookups], 0.0),
              "ratio");

  result->Add("witness.integer_ms", SelfPerOp(report, span::kInteger), "ms");
  result->Add("witness.tuples_ms", SelfPerOp(report, span::kTuples), "ms");
  result->Add("witness.certify_ms", SelfPerOp(report, span::kCertify), "ms");
  result->Add("witness.individuals", report.witness_individuals / ops, "count");
  result->Add("witness.tuples", report.witness_tuples / ops, "count");
  result->Add("witness.flow_refinements", report.witness_flow_refinements / ops,
              "count");
  result->Add("witness.scaling_attempts", report.witness_scaling_attempts / ops,
              "count");

  result->Add("expansion.build_ms", SelfPerOp(report, span::kExpansion), "ms");
  result->Add("expansion.compound_classes", report.compound_classes / ops,
              "count");
  result->Add("expansion.compound_relationships",
              report.compound_relationships / ops, "count");
  result->Add("expansion.pruned_subtrees", per_op(Counters::kPrunedSubtrees),
              "count");

  result->Add("cr.parse_ms", SelfPerOp(report, span::kParse), "ms");
  result->Add("analysis.lint_ms", SelfPerOp(report, span::kLint), "ms");
  result->Add("analysis.provably_empty_ms",
              SelfPerOp(report, span::kProvablyEmpty), "ms");

  for (int t = 0; t < kNumRequestTypes; ++t) {
    const std::string type = kRequestTypes[t];
    result->Add("server." + type + "_p50_ms", report.request_p50_ms[t], "ms");
    result->Add("server." + type + "_p99_ms", report.request_p99_ms[t], "ms");
  }
  for (int t = 0; t < kNumRequestTypes; ++t) {
    const std::string type = kRequestTypes[t];
    result->Add("server." + type + "_handler_ms", report.handler_ms[t], "ms");
    result->Add("server." + type + "_wait_ms",
                report.request_mean_ms[t] > 0
                    ? report.request_mean_ms[t] - report.handler_ms[t]
                    : 0,
                "ms");
  }
  result->Add("server.admitted", report.admitted, "count");
  result->Add("server.shed", report.shed, "count");
  result->Add("server.response_bytes", report.response_bytes, "bytes");

  result->Add("base.warm_start_fallbacks",
              per_op(Counters::kWarmStartFallbacks), "count");
  result->Add("base.cover_fallbacks", per_op(Counters::kCoverFallbacks),
              "count");
  result->Add("base.guard_trips", per_op(Counters::kGuardTrips), "count");
  result->Add("base.bad_alloc_conversions",
              per_op(Counters::kBadAllocConversions), "count");

  result->Add("trace.overhead_ops_per_s", report.trace_overhead_ops_per_s,
              "1/s");
}

void WriteTraceFiles(const Options& options, const std::string& extra_json) {
  const std::string dir = options.out_dir + "/trace";
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  const std::string stem =
      dir + "/" + options.workload + "-seed" + std::to_string(options.seed);
  if (!Tracer::Get().WriteChromeTrace(stem + ".trace.json")) {
    std::cerr << "[crbench] could not write " << stem << ".trace.json\n";
    return;
  }
  std::ostringstream summary;
  summary << "{\"workload\": \"" << options.workload << "\", \"seed\": "
          << options.seed << ", \"spans\": " << Tracer::Get().size()
          << ",\n \"layers\": {";
  bool first = true;
  for (const auto& [name, totals] : Tracer::Get().Aggregate()) {
    summary << (first ? "\n" : ",\n") << "  \"" << name
            << "\": {\"count\": " << totals.count
            << ", \"inclusive_ms\": " << totals.inclusive_ms
            << ", \"self_ms\": " << totals.self_ms << "}";
    first = false;
  }
  summary << "\n },\n " << (extra_json.empty() ? "\"extra\": null" : extra_json)
          << "\n}\n";
  WriteFile(stem + ".summary.json", summary.str());
  std::cerr << "[crbench] trace: " << stem << ".trace.json ("
            << Tracer::Get().size() << " spans)\n";
}

}  // namespace perfbench
