// crbench: the crsat benchmark program (see perfbench/README.md).
//
//   crbench --workload report_chain|check_corpus|daemon_mix --seed N
//           --seconds S --trace 0|1 [--bench-dir DIR] [--out-dir DIR]
//           [--regen-reference [--cli PATH]]
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the same ops untraced and then traced, checks that both produce
// the same outputs, and reports the per-layer metrics. Every metric is
// printed by name and unit; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Any wrong output makes
// the exit code 1; a set-up failure exits 2 without a result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "src/workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: crbench --workload report_chain|check_corpus|"
               "daemon_mix --seed N --seconds S --trace 0|1\n"
               "               [--bench-dir DIR] [--out-dir DIR] "
               "[--regen-reference [--cli PATH]]\n";
  return 2;
}

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--bench-dir" && has_value) {
      options.bench_dir = argv[++i];
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else if (arg == "--cli" && has_value) {
      options.cli = argv[++i];
    } else if (arg == "--regen-reference") {
      options.regen_reference = true;
    } else {
      return Usage();
    }
  }
  if (!have_workload || options.seconds <= 0) {
    return Usage();
  }

  perfbench::RunResult result;
  int status;
  if (options.workload == "report_chain") {
    status = perfbench::RunReportChain(options, &result);
  } else if (options.workload == "check_corpus") {
    status = perfbench::RunCheckCorpus(options, &result);
  } else if (options.workload == "daemon_mix") {
    status = perfbench::RunDaemonMix(options, &result);
  } else {
    return Usage();
  }
  if (status != 0) {
    std::cerr << "[crbench] " << options.workload << ": set-up failed\n";
    return 2;
  }

  for (const std::string& note : result.notes) {
    std::cerr << "[crbench] " << note << "\n";
  }
  const double failed_fraction =
      result.attempted > 0
          ? static_cast<double>(result.failed) / result.attempted
          : 0.0;
  std::cout << options.workload << " seed=" << options.seed
            << (options.trace ? " (traced)" : "") << "\n";
  for (const perfbench::Metric& metric : result.metrics) {
    std::cout << "  " << metric.name << " = " << Number(metric.value) << " "
              << metric.unit << "\n";
  }
  result.info.push_back({"failed_fraction", failed_fraction, "ratio"});
  result.info.push_back(
      {"mismatches", static_cast<double>(result.mismatches), "count"});
  for (const perfbench::Metric& metric : result.info) {
    std::cout << "  " << metric.name << " = " << Number(metric.value) << " "
              << metric.unit << "\n";
  }

  std::cout << "{\"correct\": " << (result.mismatches == 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& metric = result.metrics[i];
    std::cout << (i > 0 ? ", " : "") << "\"" << metric.name
              << "\": {\"value\": " << Number(metric.value) << ", \"unit\": \""
              << metric.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return result.mismatches == 0 ? 0 : 1;
}
