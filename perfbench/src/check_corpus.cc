// check_corpus: the `crsat_cli check --witness` pipeline over a seeded
// corpus of schema texts, one op per schema, reasoning pool of 1 thread.
//
//   parse -> provably-empty -> expansion -> system -> satisfiable classes
//         -> minimal integer solution -> tuple assignment -> certification
//
// Correctness: every per-class verdict is compared with the committed
// reference (refereed once by the brute-force oracle and the saturation
// engine), every SAT class must be populated by the certified witness,
// and after the timed window the oracle and saturation referee the
// verdicts again on this seed's texts.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "src/crsat.h"
#include "src/witness/integer_solution.h"
#include "src/witness/tuple_assignment.h"
#include "src/workloads.h"

namespace perfbench {

namespace {

struct Category {
  const char* label;
  int num_classes;
  double isa_density;
  int disjointness_groups;
  int count;
};

// Random schemas per category: 5-class/3-relationship schemas at ISA
// density 0.3 and 0.5, with and without one disjointness group, plus
// 4-class ISA-free ones (5-class ISA-free schemas take minutes each in
// witness mode: every subset of classes is a consistent compound).
constexpr Category kCategories[] = {
    {"isa30", 5, 0.3, 0, 24}, {"isa30d", 5, 0.3, 1, 24},
    {"isa50", 5, 0.5, 0, 24}, {"isa50d", 5, 0.5, 1, 24},
    {"free4", 4, 0.0, 0, 24},
};

constexpr const char* kCuratedSchemas[] = {
    "figure1",
    "meeting",
    "university",
    "finitely_unsat_chain",
    "finitely_unsat_pair",
    "finitely_unsat_ternary",
    "finitely_unsat_binary_tree",
};

// The random schemas' structure comes from fixed generator seeds; the
// run seed draws kVariants renamings of every structure (one per pass,
// so no pass repeats a text) and a seeded op order per pass. Classes
// keep their declaration order: permuting it changes the LP's column
// order, which moves single heavy schemas by up to 3x and would make the
// run-to-run spread a property of the permutation draw. Drawing fresh
// structures per seed would likewise make the corpus's upper decile a
// sampling artifact of ~100 draws instead of a property of the code.
constexpr std::uint32_t kStructureSeedBase = 7001;
constexpr int kVariants = 8;

struct CorpusEntry {
  std::string label;  ///< Structure label; the reference is keyed by it.
  int variant = 0;
  std::string text;
  /// Class names in the text, indexed by the structure's class id; the
  /// reference verdicts use that (seed-independent) order.
  std::vector<std::string> class_names;

  std::string Key() const { return label + "#" + std::to_string(variant); }
};

// One pass per variant: every structure once, in a seeded order.
using Corpus = std::vector<std::vector<CorpusEntry>>;

bool MakeCorpus(const Options& options, Corpus* corpus) {
  std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<crsat::Schema> structures;
  std::vector<std::string> labels;
  int category_index = 0;
  for (const Category& category : kCategories) {
    for (int k = 0; k < category.count; ++k) {
      crsat::RandomSchemaParams params;
      params.seed = kStructureSeedBase + 1000 * category_index + k;
      params.num_classes = category.num_classes;
      params.num_relationships = 3;
      params.isa_density = category.isa_density;
      params.num_disjointness_groups = category.disjointness_groups;
      crsat::Result<crsat::Schema> schema = crsat::GenerateRandomSchema(params);
      if (!schema.ok()) {
        std::cerr << "[crbench] generator: " << schema.status() << "\n";
        return false;
      }
      structures.push_back(std::move(schema.value()));
      labels.push_back(std::string(category.label) + "_" + std::to_string(k));
    }
    ++category_index;
  }
  corpus->assign(kVariants, {});
  for (int variant = 0; variant < kVariants; ++variant) {
    std::vector<CorpusEntry>& pass = (*corpus)[variant];
    for (std::size_t i = 0; i < structures.size(); ++i) {
      const crsat::Schema& schema = structures[i];
      CorpusEntry entry;
      entry.label = labels[i];
      entry.variant = variant;
      entry.class_names = SeededNames(rng, "K", schema.num_classes());
      const std::vector<std::string> rel_names =
          SeededNames(rng, "R", schema.num_relationships());
      const std::vector<std::string> role_names =
          SeededNames(rng, "u", schema.num_roles());
      entry.text = RenderSchema(schema, "S_" + entry.label, entry.class_names,
                                rel_names, role_names);
      pass.push_back(std::move(entry));
    }
    // The curated schemas are the paper's and stay verbatim.
    for (const char* name : kCuratedSchemas) {
      CorpusEntry entry;
      entry.label = name;
      entry.variant = variant;
      if (!ReadFile(options.bench_dir + "/schemas/" + name + ".cr",
                    &entry.text)) {
        std::cerr << "[crbench] cannot read curated schema " << name << "\n";
        return false;
      }
      crsat::Result<crsat::NamedSchema> parsed = crsat::ParseSchema(entry.text);
      if (!parsed.ok()) {
        std::cerr << "[crbench] " << name << ": " << parsed.status() << "\n";
        return false;
      }
      for (crsat::ClassId cls : parsed->schema.AllClasses()) {
        entry.class_names.push_back(parsed->schema.ClassName(cls));
      }
      pass.push_back(std::move(entry));
    }
    std::vector<CorpusEntry> shuffled;
    for (int index : SeededPermutation(rng, static_cast<int>(pass.size()))) {
      shuffled.push_back(std::move(pass[index]));
    }
    pass = std::move(shuffled);
  }
  return true;
}

// What one op produced.
struct CheckOutcome {
  bool ok = false;
  std::string error;
  std::string verdicts;  ///< 'S'/'U' per class, in CorpusEntry order.
  bool populated_ok = true;
  crsat::WitnessStats witness;
  std::uint64_t compound_classes = 0;
  std::uint64_t compound_relationships = 0;
  double front_ms = 0;  ///< parse + provably-empty.
  double latency_ms = 0;

  std::string Digest() const {
    return verdicts + "/" + std::to_string(witness.individuals) + "/" +
           std::to_string(witness.tuples);
  }
};

// The `check --witness` pipeline exactly as crsat_cli runs it, with the
// synthesizer's three stages called one by one so each gets a span.
CheckOutcome RunCheckPipeline(const CorpusEntry& entry) {
  CheckOutcome outcome;
  const Clock::time_point start = Clock::now();
  ScopedSpan op_span(span::kOp);
  std::optional<crsat::NamedSchema> parsed;
  {
    ScopedSpan s(span::kParse);
    crsat::Result<crsat::NamedSchema> result = crsat::ParseSchema(entry.text);
    if (!result.ok()) {
      outcome.error = result.status().ToString();
      return outcome;
    }
    parsed.emplace(std::move(result.value()));
  }
  const crsat::Schema& schema = parsed->schema;
  std::vector<bool> known_empty;
  {
    ScopedSpan s(span::kProvablyEmpty);
    known_empty = crsat::ComputeProvablyEmpty(schema).class_empty;
  }
  outcome.front_ms = MillisSince(start);
  std::optional<crsat::Expansion> expansion;
  {
    ScopedSpan s(span::kExpansion);
    crsat::ExpansionOptions expansion_options;
    expansion_options.known_empty_classes = &known_empty;
    crsat::Result<crsat::Expansion> built =
        crsat::Expansion::Build(schema, expansion_options);
    if (!built.ok()) {
      outcome.error = built.status().ToString();
      return outcome;
    }
    expansion.emplace(std::move(built.value()));
  }
  outcome.compound_classes = expansion->classes().size();
  outcome.compound_relationships = expansion->relationships().size();
  std::optional<crsat::SatisfiabilityChecker> checker;
  {
    // The checker's constructor is where Psi_S is built.
    ScopedSpan s(span::kSystem);
    checker.emplace(*expansion);
  }
  checker->SetKnownEmptyClasses(known_empty);
  std::vector<bool> satisfiable;
  {
    ScopedSpan s(span::kSupport);
    crsat::Result<std::vector<bool>> verdicts = checker->SatisfiableClasses();
    if (!verdicts.ok()) {
      outcome.error = verdicts.status().ToString();
      return outcome;
    }
    satisfiable = std::move(verdicts.value());
  }
  std::vector<crsat::ClassId> ids;
  bool any_satisfiable = false;
  for (const std::string& name : entry.class_names) {
    const std::optional<crsat::ClassId> cls = schema.FindClass(name);
    if (!cls.has_value()) {
      outcome.error = "class " + name + " missing after parse";
      return outcome;
    }
    ids.push_back(*cls);
    outcome.verdicts += satisfiable[cls->value] ? 'S' : 'U';
    any_satisfiable = any_satisfiable || satisfiable[cls->value];
  }
  if (any_satisfiable) {
    crsat::WitnessOptions witness_options;
    witness_options.source_map = &parsed->source_map;
    crsat::WarmStartBasis carry;
    std::optional<crsat::IntegerSolution> solution;
    {
      ScopedSpan s(span::kInteger);
      crsat::Result<crsat::IntegerSolution> result = crsat::SolveIntegerStage(
          *checker, witness_options, &carry, &outcome.witness);
      if (!result.ok()) {
        outcome.error = result.status().ToString();
        return outcome;
      }
      solution.emplace(std::move(result.value()));
    }
    std::optional<crsat::Interpretation> interpretation;
    {
      ScopedSpan s(span::kTuples);
      crsat::Result<crsat::Interpretation> result =
          crsat::AssignTuples(*expansion, *solution, witness_options,
                              &outcome.witness, /*guard=*/nullptr);
      if (!result.ok()) {
        outcome.error = result.status().ToString();
        return outcome;
      }
      interpretation.emplace(std::move(result.value()));
    }
    ScopedSpan s(span::kCertify);
    crsat::Result<crsat::CertifiedWitness> certified =
        crsat::CertifiedWitness::Certify(schema, std::move(*interpretation),
                                         outcome.witness, &parsed->source_map);
    if (!certified.ok()) {
      outcome.error = certified.status().ToString();
      return outcome;
    }
    outcome.witness = certified->stats();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const bool populated =
          !certified->interpretation().ClassExtension(ids[i]).empty();
      if (populated != (outcome.verdicts[i] == 'S')) {
        outcome.populated_ok = false;
      }
    }
  }
  outcome.ok = true;
  outcome.latency_ms = MillisSince(start);
  return outcome;
}

// The oracle and saturation engine referee one schema's verdicts; any
// disagreement is returned as a message. The oracle is bounded, so a
// SAT verdict it cannot confirm must come with a witness larger than
// its domain bound.
// Thread-safe: the saturation engine is run class by class, off the
// global pool.
std::vector<std::string> Referee(const CorpusEntry& entry,
                                 const CheckOutcome& outcome) {
  std::vector<std::string> problems;
  crsat::Result<crsat::NamedSchema> parsed = crsat::ParseSchema(entry.text);
  if (!parsed.ok()) {
    return {entry.label + ": referee parse failed"};
  }
  const crsat::Schema& schema = parsed->schema;
  const crsat::OracleOptions oracle_options;
  crsat::Result<crsat::OracleReport> oracle =
      crsat::BruteForceOracle::Decide(schema, oracle_options);
  for (std::size_t i = 0; i < entry.class_names.size(); ++i) {
    const crsat::ClassId cls = schema.FindClass(entry.class_names[i]).value();
    const bool sat = outcome.verdicts[i] == 'S';
    const std::string where = entry.label + " class " + entry.class_names[i];
    if (oracle.ok()) {
      const bool oracle_sat = oracle->Satisfiable(cls);
      if (!sat && oracle_sat) {
        problems.push_back(where + ": UNSAT but the oracle found a model");
      }
      if (sat && !oracle_sat &&
          outcome.witness.individuals <=
              static_cast<std::uint64_t>(oracle_options.max_domain)) {
        problems.push_back(where + ": SAT but no model within the bound");
      }
    }
    const crsat::SaturationVerdict verdict =
        crsat::SaturationEngine::DecideClass(schema, cls).verdict;
    if (sat && verdict == crsat::SaturationVerdict::kUnsat) {
      problems.push_back(where + ": SAT but classically UNSAT");
    }
    if (!sat && verdict == crsat::SaturationVerdict::kFiniteModel) {
      problems.push_back(where + ": UNSAT but saturation found a finite model");
    }
  }
  return problems;
}

std::string ReferencePath(const Options& options) {
  return options.bench_dir + "/reference/check_corpus.txt";
}

// label -> verdicts, from the committed reference.
std::map<std::string, std::string> LoadReference(const Options& options) {
  std::map<std::string, std::string> reference;
  std::string text;
  if (!ReadFile(ReferencePath(options), &text)) {
    return reference;
  }
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string label, verdicts;
    fields >> label >> verdicts;
    reference[label] = verdicts;
  }
  return reference;
}

struct Window {
  std::vector<Slice> passes;
  std::map<std::string, double> slowest;  ///< Structure label -> max ms.
  std::map<std::string, CheckOutcome> outcomes;  ///< By CorpusEntry::Key().
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0;
  LayerReport layers;
};

// Runs whole passes, one variant each, until `seconds` have elapsed;
// whole passes keep the op mix identical between runs.
Window Measure(const Corpus& corpus, double seconds,
               const std::map<std::string, std::string>& reference,
               RunResult* result) {
  Window window;
  const Clock::time_point start = Clock::now();
  std::int64_t op = 0;
  for (std::size_t pass = 0; window.passes.empty() ||
                             MillisSince(start) < seconds * 1000;
       ++pass) {
    Slice slice;
    const Clock::time_point pass_start = Clock::now();
    for (const CorpusEntry& entry : corpus[pass % corpus.size()]) {
      Tracer::SetOp(op++);
      CheckOutcome outcome = RunCheckPipeline(entry);
      if (!outcome.ok) {
        ++window.failed;
        std::cerr << "[crbench] " << entry.Key() << " failed: "
                  << outcome.error << "\n";
        continue;
      }
      slice.latencies_ms.push_back(outcome.latency_ms);
      slice.light_ms.push_back(outcome.front_ms);
      double& slowest = window.slowest[entry.label];
      slowest = std::max(slowest, outcome.latency_ms);
      const auto expected = reference.find(entry.label);
      if (expected != reference.end() && expected->second != outcome.verdicts) {
        result->Mismatch(entry.Key() + ": verdicts " + outcome.verdicts +
                         ", reference " + expected->second);
      }
      if (!outcome.populated_ok) {
        result->Mismatch(entry.Key() +
                         ": certified witness does not populate exactly "
                         "the SAT classes");
      }
      LayerReport& layers = window.layers;
      layers.compound_classes += outcome.compound_classes;
      layers.compound_relationships += outcome.compound_relationships;
      layers.witness_individuals += outcome.witness.individuals;
      layers.witness_tuples += outcome.witness.tuples;
      layers.witness_flow_refinements += outcome.witness.flow_refinements;
      layers.witness_scaling_attempts += outcome.witness.scaling_attempts;
      window.outcomes[entry.Key()] = std::move(outcome);
    }
    slice.seconds = MillisSince(pass_start) / 1000;
    window.ops += slice.latencies_ms.size();
    window.passes.push_back(std::move(slice));
  }
  window.elapsed_s = MillisSince(start) / 1000;
  window.layers.ops = static_cast<double>(window.ops);
  return window;
}

// Referees the first pass's variant of every structure on four threads
// and returns the reference text those verdicts make.
std::string RefereeCorpus(const Corpus& corpus, const Window& window,
                          RunResult* result) {
  std::vector<const CorpusEntry*> entries;
  for (const CorpusEntry& entry : corpus[0]) {
    if (window.outcomes.count(entry.Key()) != 0) {
      entries.push_back(&entry);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const CorpusEntry* a, const CorpusEntry* b) {
              return a->label < b->label;
            });
  std::vector<std::vector<std::string>> problems(entries.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < entries.size(); i = next++) {
        problems[i] =
            Referee(*entries[i], window.outcomes.at(entries[i]->Key()));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  std::string text = "# check_corpus reference verdicts at seed " +
                     std::to_string(kDefaultSeed) +
                     ": 'S'/'U' per class in structure order,\n"
                     "# refereed by BruteForceOracle and SaturationEngine.\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (const std::string& problem : problems[i]) {
      result->Mismatch(problem);
    }
    text += entries[i]->label + " " +
            window.outcomes.at(entries[i]->Key()).verdicts + "\n";
  }
  return text;
}

}  // namespace

int RunCheckCorpus(const Options& options, RunResult* result) {
  // Set-up: corpus generation, the pool, and one warm-up op, repeated
  // and reported as the median.
  Corpus corpus;
  std::vector<double> setups;
  for (int round = 0; round < kSetupRounds; ++round) {
    const Clock::time_point start = Clock::now();
    if (!MakeCorpus(options, &corpus)) {
      return 2;
    }
    crsat::SetGlobalThreadCount(1);
    const auto warm = std::find_if(corpus[0].begin(), corpus[0].end(),
                                   [](const CorpusEntry& entry) {
                                     return entry.label == "university";
                                   });
    if (!RunCheckPipeline(*warm).ok) {
      std::cerr << "[crbench] warm-up op failed\n";
      return 2;
    }
    setups.push_back(MillisSince(start) / 1000);
  }

  std::map<std::string, std::string> reference;
  if (!options.regen_reference) {
    reference = LoadReference(options);
    if (reference.size() != corpus[0].size()) {
      std::cerr << "[crbench] reference " << ReferencePath(options)
                << " is missing or does not cover the corpus\n";
      return 2;
    }
  }

  Window untraced = Measure(
      corpus, options.trace ? options.seconds / 2 : options.seconds,
      reference, result);
  std::uint64_t attempted = untraced.ops + untraced.failed;
  std::uint64_t failed = untraced.failed;
  if (!options.trace) {
    // Before the referee runs, so peak RSS is the workload's own.
    AddEndToEnd(result, setups, untraced.passes, 0.90, 0.90, "p90");
  }

  if (options.trace) {
    Tracer::Get().Enable(true);
    Window traced = Measure(corpus, options.seconds / 2, reference, result);
    Tracer::Get().Enable(false);
    attempted += traced.ops + traced.failed;
    failed += traced.failed;
    for (const auto& [key, outcome] : traced.outcomes) {
      const auto before = untraced.outcomes.find(key);
      if (before == untraced.outcomes.end() ||
          before->second.Digest() != outcome.Digest()) {
        result->Mismatch(key + ": traced output differs from untraced");
      }
    }
    LayerReport& layers = traced.layers;
    layers.layers = Tracer::Get().Aggregate();
    layers.counters = layers.layers[span::kOp].counters;
    layers.trace_overhead_ops_per_s = untraced.ops / untraced.elapsed_s -
                                      traced.ops / traced.elapsed_s;
    AddLayerMetrics(layers, result);

    // The five heaviest schemas, so later LP claims can be attributed
    // to the tail.
    std::vector<std::pair<double, std::string>> heaviest;
    for (const auto& [label, ms] : untraced.slowest) {
      heaviest.push_back({ms, label});
    }
    std::sort(heaviest.rbegin(), heaviest.rend());
    heaviest.resize(std::min<std::size_t>(heaviest.size(), 5));
    std::string extra = "\"heaviest_schemas\": [";
    for (std::size_t i = 0; i < heaviest.size(); ++i) {
      char line[160];
      std::snprintf(line, sizeof(line), "%s{\"label\": \"%s\", \"ms\": %.3f}",
                    i > 0 ? ", " : "", heaviest[i].second.c_str(),
                    heaviest[i].first);
      extra += line;
      result->notes.push_back("heaviest: " + heaviest[i].second + " " +
                              std::to_string(heaviest[i].first) + " ms");
    }
    WriteTraceFiles(options, extra + "]");
  }

  // Referee this seed's texts, outside the timed windows.
  const std::string refereed = RefereeCorpus(corpus, untraced, result);
  if (options.regen_reference) {
    if (options.seed != kDefaultSeed || result->mismatches != 0 ||
        !WriteFile(ReferencePath(options), refereed)) {
      std::cerr << "[crbench] refusing to write the reference\n";
      return 2;
    }
    std::cerr << "[crbench] wrote " << ReferencePath(options) << "\n";
  }

  result->attempted = attempted;
  result->failed = failed;
  result->notes.push_back(std::to_string(untraced.passes.size()) +
                          " passes of " + std::to_string(corpus[0].size()) +
                          " schema texts in the untraced window");
  return 0;
}

}  // namespace perfbench
