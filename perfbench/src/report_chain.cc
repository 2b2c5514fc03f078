// report_chain: the implied-cardinality report (`crsat_cli report`) on
// the ISA-chain schema of bench_parallel, depth 8, reasoning pool of 2
// threads. One op parses the schema text and builds one full report.
//
// Correctness: the report text must equal the committed, hand-checkable
// reference (perfbench/reference/report_chain.txt) after renaming. The
// seed renames every class, relationship and role to names of the same
// length, so the expected table keeps its column alignment.
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

#include "src/crsat.h"
#include "src/workloads.h"

namespace perfbench {

namespace {

constexpr int kDepth = 8;
constexpr int kThreads = 2;

struct ChainInput {
  std::string text;
  std::map<std::string, std::string> rename;  ///< Canonical -> seeded name.
};

// Canonical names: C0..C7 along the chain, T, relationship R, roles U/V.
ChainInput MakeChain(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ULL + 3);
  ChainInput input;
  if (seed == kDefaultSeed) {
    for (int i = 0; i < kDepth; ++i) {
      input.rename["C" + std::to_string(i)] = "C" + std::to_string(i);
    }
    for (const char* name : {"T", "R", "U", "V"}) {
      input.rename[name] = name;
    }
  } else {
    // 26 letters, 4 single-letter names and 8 two-character ones.
    const std::vector<int> letters = SeededPermutation(rng, 26);
    auto letter = [&letters](int i) {
      return std::string(1, static_cast<char>('A' + letters[i]));
    };
    for (int i = 0; i < kDepth; ++i) {
      input.rename["C" + std::to_string(i)] = letter(i) + std::to_string(i);
    }
    input.rename["T"] = letter(kDepth);
    input.rename["R"] = letter(kDepth + 1);
    input.rename["U"] = letter(kDepth + 2);
    input.rename["V"] = letter(kDepth + 3);
  }
  auto n = [&input](const std::string& canonical) {
    return input.rename.at(canonical);
  };
  std::ostringstream text;
  text << "schema Chain {\n  class ";
  for (int i = 0; i < kDepth; ++i) {
    text << n("C" + std::to_string(i)) << ", ";
  }
  text << n("T") << ";\n";
  for (int i = 0; i + 1 < kDepth; ++i) {
    text << "  isa " << n("C" + std::to_string(i)) << " < "
         << n("C" + std::to_string(i + 1)) << ";\n";
  }
  const std::string top = n("C" + std::to_string(kDepth - 1));
  text << "  relationship " << n("R") << "(" << n("U") << ": " << top << ", "
       << n("V") << ": " << n("T") << ");\n"
       << "  card " << top << " in " << n("R") << "." << n("U")
       << " = (1, 4);\n"
       << "  card " << n("C0") << " in " << n("R") << "." << n("U")
       << " = (2, 3);\n"
       << "  card " << n("T") << " in " << n("R") << "." << n("V")
       << " = (1, 1);\n}\n";
  input.text = text.str();
  return input;
}

// Applies the renaming to the canonical report: each row starts with
// "<class> / <rel>.<role>", and renamed tokens keep their length.
std::string RenameReport(const std::string& canonical,
                         const std::map<std::string, std::string>& rename) {
  std::istringstream in(canonical);
  std::string line, out;
  bool header = true;
  while (std::getline(in, line)) {
    const std::size_t slash = line.find(" / ");
    const std::size_t dot = line.find('.', slash);
    const std::size_t space = line.find(' ', dot);
    if (!header && slash != std::string::npos && dot != std::string::npos &&
        space != std::string::npos) {
      line = rename.at(line.substr(0, slash)) + " / " +
             rename.at(line.substr(slash + 3, dot - slash - 3)) + "." +
             rename.at(line.substr(dot + 1, space - dot - 1)) +
             line.substr(space);
    }
    header = false;
    out += line + "\n";
  }
  return out;
}

struct OpOutcome {
  bool ok = false;
  std::string output;
  double latency_ms = 0;
  double front_ms = 0;
};

OpOutcome RunReport(const std::string& text) {
  OpOutcome outcome;
  const Clock::time_point start = Clock::now();
  ScopedSpan op_span(span::kOp);
  std::optional<crsat::NamedSchema> parsed;
  {
    ScopedSpan s(span::kParse);
    crsat::Result<crsat::NamedSchema> result = crsat::ParseSchema(text);
    if (!result.ok()) {
      outcome.output = result.status().ToString();
      return outcome;
    }
    parsed.emplace(std::move(result.value()));
  }
  outcome.front_ms = MillisSince(start);
  ScopedSpan s(span::kReport);
  crsat::Result<std::vector<crsat::ImpliedCardinalityRow>> report =
      crsat::BuildImpliedCardinalityReport(parsed->schema);
  if (!report.ok()) {
    outcome.output = report.status().ToString();
    return outcome;
  }
  outcome.output =
      crsat::ImpliedCardinalityReportToString(parsed->schema, *report);
  outcome.ok = true;
  outcome.latency_ms = MillisSince(start);
  return outcome;
}

// A cheap warm-up op: the chain's satisfiability check.
bool WarmUp(const std::string& text) {
  crsat::Result<crsat::NamedSchema> parsed = crsat::ParseSchema(text);
  if (!parsed.ok()) {
    return false;
  }
  crsat::Result<crsat::Expansion> expansion =
      crsat::Expansion::Build(parsed->schema);
  if (!expansion.ok()) {
    return false;
  }
  crsat::SatisfiabilityChecker checker(*expansion);
  return checker.SatisfiableClasses().ok();
}

struct Window {
  std::vector<double> latencies;
  std::vector<double> front;
  std::vector<std::string> outputs;
  std::uint64_t failed = 0;
  double elapsed_s = 0;
};

Window Measure(const std::string& text, const std::string& expected,
               double seconds, RunResult* result) {
  Window window;
  const Clock::time_point start = Clock::now();
  std::int64_t op = 0;
  do {
    Tracer::SetOp(op++);
    OpOutcome outcome = RunReport(text);
    if (!outcome.ok) {
      ++window.failed;
      std::cerr << "[crbench] report failed: " << outcome.output << "\n";
      continue;
    }
    if (outcome.output != expected) {
      result->Mismatch("chain report differs from the reference:\n" +
                       outcome.output);
    }
    window.latencies.push_back(outcome.latency_ms);
    window.front.push_back(outcome.front_ms);
    window.outputs.push_back(std::move(outcome.output));
  } while (MillisSince(start) < seconds * 1000);
  window.elapsed_s = MillisSince(start) / 1000;
  return window;
}

}  // namespace

int RunReportChain(const Options& options, RunResult* result) {
  const std::string reference_path =
      options.bench_dir + "/reference/report_chain.txt";
  ChainInput input;
  std::vector<double> setups;
  for (int round = 0; round < kSetupRounds; ++round) {
    const Clock::time_point start = Clock::now();
    input = MakeChain(options.seed);
    crsat::SetGlobalThreadCount(kThreads);
    if (!WarmUp(input.text)) {
      std::cerr << "[crbench] warm-up op failed\n";
      return 2;
    }
    setups.push_back(MillisSince(start) / 1000);
  }

  std::string expected;
  if (options.regen_reference) {
    if (options.seed != kDefaultSeed) {
      std::cerr << "[crbench] references are written at the default seed\n";
      return 2;
    }
    const OpOutcome outcome = RunReport(input.text);
    if (!outcome.ok || !WriteFile(reference_path, outcome.output)) {
      return 2;
    }
    std::cerr << "[crbench] wrote " << reference_path
              << "; check it by hand before committing\n";
    expected = outcome.output;
  } else {
    std::string canonical;
    if (!ReadFile(reference_path, &canonical)) {
      std::cerr << "[crbench] cannot read " << reference_path << "\n";
      return 2;
    }
    expected = RenameReport(canonical, input.rename);
  }

  const Window untraced = Measure(
      input.text, expected,
      options.trace ? options.seconds / 2 : options.seconds, result);
  std::uint64_t attempted = untraced.latencies.size() + untraced.failed;
  std::uint64_t failed = untraced.failed;
  if (options.trace) {
    Tracer::Get().Enable(true);
    const Window traced =
        Measure(input.text, expected, options.seconds / 2, result);
    Tracer::Get().Enable(false);
    attempted += traced.latencies.size() + traced.failed;
    failed += traced.failed;
    for (std::size_t i = 0;
         i < traced.outputs.size() && i < untraced.outputs.size(); ++i) {
      if (traced.outputs[i] != untraced.outputs[i]) {
        result->Mismatch("traced report differs from untraced");
      }
    }
    LayerReport layers;
    layers.ops = static_cast<double>(traced.latencies.size());
    layers.layers = Tracer::Get().Aggregate();
    layers.counters = layers.layers[span::kOp].counters;
    layers.trace_overhead_ops_per_s =
        untraced.latencies.size() / untraced.elapsed_s -
        traced.latencies.size() / traced.elapsed_s;
    AddLayerMetrics(layers, result);
    WriteTraceFiles(options, "");
  } else {
    // Too few reports for a tail or for slices: the whole window is one
    // slice, the tail is the slowest report and the light figure is the
    // median parse.
    AddEndToEnd(result, setups,
                {{untraced.elapsed_s, untraced.latencies, untraced.front}},
                1.0, 0.5, "max");
  }
  result->attempted = attempted;
  result->failed = failed;
  result->notes.push_back(std::to_string(untraced.latencies.size()) +
                          " reports in the untraced window");
  return 0;
}

}  // namespace perfbench
