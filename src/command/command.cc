#include "src/command/command.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "src/analysis/diagnostics.h"
#include "src/analysis/empty_classes.h"
#include "src/analysis/lint_engine.h"
#include "src/base/degradation.h"
#include "src/base/string_util.h"
#include "src/base/thread_pool.h"
#include "src/baseline/ln_reasoner.h"
#include "src/expansion/expansion.h"
#include "src/lp/simplex.h"
#include "src/reasoner/implication.h"
#include "src/reasoner/implication_engine.h"
#include "src/reasoner/satisfiability.h"
#include "src/witness/witness.h"
#include "src/witness/witness_text.h"

namespace crsat {
namespace command {

namespace {

// A failure before anything reached stdout: the status on stderr.
CommandResult Fail(int exit_code, const Status& status) {
  return {exit_code, "", status.ToString() + "\n"};
}

// A tripped guard: the JSON report on stdout, or the text one on stderr.
CommandResult ReportTrip(const ResourceGuard& guard, bool json) {
  if (json) {
    return {kExitResource,
            "{\n  \"error\": \"" + JsonEscape(guard.TripStatus().ToString()) +
                "\",\n  \"resource\": " + guard.report().ToJson() + "\n}\n",
            ""};
  }
  return {kExitResource, "",
          guard.TripStatus().ToString() + "\n" + guard.report().ToString() +
              "\n"};
}

// A failed pipeline stage: the trip report when the guard caused it.
// Other resource-family statuses (a converted bad_alloc or an injected
// allocation fault, even without a guard) keep the 0/1/2/3 contract by
// exiting 3.
CommandResult FailStage(const Status& status, const ResourceGuard* guard,
                        bool json) {
  if (guard != nullptr && guard->tripped()) {
    return ReportTrip(*guard, json);
  }
  return Fail(IsResourceLimitStatus(status.code()) ? kExitResource
                                                   : kExitFindings,
              status);
}

std::string Load(const std::atomic<std::uint64_t>& counter) {
  return std::to_string(counter.load(std::memory_order_relaxed));
}

// Solver counters as a JSON object. They are process-wide; the CLI resets
// them at command start, so there they cover exactly one invocation.
std::string SimplexStatsJson() {
  const SimplexStats& stats = GetSimplexStats();
  return "{\"solves\": " + Load(stats.solves) +
         ", \"pivots\": " + Load(stats.pivots) +
         ", \"phase1_pivots\": " + Load(stats.phase1_pivots) +
         ", \"fast_solves\": " + Load(stats.fast_solves) +
         ", \"fast_pivots\": " + Load(stats.fast_pivots) +
         ", \"tier_fallbacks\": " + Load(stats.tier_fallbacks) +
         ", \"warm_start_hits\": " + Load(stats.warm_start_hits) +
         ", \"warm_start_misses\": " + Load(stats.warm_start_misses) +
         ", \"dominance_lookups\": " +
         Load(GetImplicationStats().dominance_lookups) +
         ", \"dominance_hits\": " + Load(GetImplicationStats().dominance_hits) +
         ", \"derived_disjoint_pairs\": " +
         Load(GetExpansionStats().derived_disjoint_pairs) +
         ", \"pruned_subtrees\": " + Load(GetExpansionStats().pruned_subtrees) +
         "}";
}

// Degradation-ladder transitions (src/base/degradation.h) as a JSON
// object: how often the run fell back a rung and why.
std::string RecoveryStatsJson() {
  const RecoveryStats& stats = GetRecoveryStats();
  return "{\"warm_start_fallbacks\": " + Load(stats.warm_start_fallbacks) +
         ", \"cover_fallbacks\": " + Load(stats.cover_fallbacks) +
         ", \"tier_fallbacks\": " + Load(stats.tier_fallbacks) +
         ", \"witness_flow_refinements\": " +
         Load(stats.witness_flow_refinements) +
         ", \"witness_rescales\": " + Load(stats.witness_rescales) +
         ", \"bad_alloc_conversions\": " + Load(stats.bad_alloc_conversions) +
         ", \"guard_trips\": " + Load(stats.guard_trips) + "}";
}

}  // namespace

Result<ClassId> ResolveClass(const Schema& schema, const std::string& name) {
  std::optional<ClassId> cls = schema.FindClass(name);
  if (!cls.has_value()) {
    return NotFoundError("no class named '" + name + "'");
  }
  return *cls;
}

Result<ClassVerdicts> DecideClasses(const Schema& schema,
                                    ResourceGuard* guard,
                                    bool allow_ln_route) {
  ClassVerdicts verdicts;
  if (allow_ln_route && IncrementalReasoningEnabled()) {
    Result<LnReasoner> baseline = LnReasoner::Create(schema);
    if (baseline.ok()) {
      CRSAT_ASSIGN_OR_RETURN(verdicts.satisfiable,
                             baseline->SatisfiableClasses());
      return verdicts;
    }
    // InvalidArgument: outside the fragment, so the full pipeline runs.
    if (baseline.status().code() != StatusCode::kInvalidArgument) {
      return baseline.status();
    }
  }
  // Structural emptiness facts feed both the expansion's compound pruning
  // and the checker's per-class short-circuit.
  std::vector<bool> known_empty = ComputeProvablyEmpty(schema).class_empty;
  ExpansionOptions options;
  options.guard = guard;
  options.known_empty_classes = &known_empty;
  CRSAT_ASSIGN_OR_RETURN(Expansion expansion,
                         Expansion::Build(schema, options));
  verdicts.expansion = std::make_unique<Expansion>(std::move(expansion));
  verdicts.checker =
      std::make_unique<SatisfiabilityChecker>(*verdicts.expansion);
  verdicts.checker->SetKnownEmptyClasses(std::move(known_empty));
  CRSAT_ASSIGN_OR_RETURN(verdicts.satisfiable,
                         verdicts.checker->SatisfiableClasses());
  return verdicts;
}

CommandResult Check(const NamedSchema& parsed, bool json,
                    const std::string& witness_mode, ResourceGuard* guard) {
  const Schema& schema = parsed.schema;
  // Witness synthesis needs the checker, so only a plain check may take
  // the Lenzerini–Nobili route.
  Result<ClassVerdicts> decided =
      DecideClasses(schema, guard, /*allow_ln_route=*/witness_mode.empty());
  if (!decided.ok()) {
    return FailStage(decided.status(), guard, json);
  }
  const std::vector<bool>& satisfiable = decided->satisfiable;
  bool all_ok = true;
  bool any_satisfiable = false;
  for (ClassId cls : schema.AllClasses()) {
    all_ok = all_ok && satisfiable[cls.value];
    any_satisfiable = any_satisfiable || satisfiable[cls.value];
  }
  const int exit_code = all_ok ? kExitOk : kExitFindings;

  std::optional<CertifiedWitness> witness;
  bool witness_downgraded = false;
  std::string witness_failure;
  if (!witness_mode.empty() && any_satisfiable) {
    WitnessSynthesizer synthesizer(*decided->checker);
    WitnessOptions witness_options;
    witness_options.guard = guard;
    witness_options.source_map = &parsed.source_map;
    Result<CertifiedWitness> result = synthesizer.Synthesize(witness_options);
    if (result.ok()) {
      witness.emplace(std::move(result.value()));
    } else if (IsResourceLimitStatus(result.status().code())) {
      // The verdict predates the trip and stands; only the witness is
      // dropped. Exit code stays verdict-driven.
      witness_downgraded = true;
      witness_failure = result.status().ToString();
    } else {
      // Anything else (certification refusal included) is a hard error:
      // an uncertified witness is never emitted, silently or otherwise.
      return Fail(kExitFindings, result.status());
    }
  }

  std::ostringstream out;
  if (json) {
    out << "{\n  \"schema\": \"" << JsonEscape(parsed.name)
        << "\",\n  \"threads\": " << GlobalThreadCount()
        << ",\n  \"classes\": [\n";
    bool first = true;
    for (ClassId cls : schema.AllClasses()) {
      if (!first) {
        out << ",\n";
      }
      first = false;
      out << "    {\"name\": \"" << JsonEscape(schema.ClassName(cls))
          << "\", \"satisfiable\": "
          << (satisfiable[cls.value] ? "true" : "false") << "}";
    }
    out << "\n  ],\n  \"strongly_satisfiable\": "
        << (all_ok ? "true" : "false") << ",\n  \"stats\": "
        << SimplexStatsJson() << ",\n  \"recovery\": " << RecoveryStatsJson();
    if (!witness_mode.empty()) {
      out << ",\n  \"witness\": ";
      if (witness.has_value()) {
        out << WitnessToJson(*witness);
      } else if (witness_downgraded) {
        out << "{\"certified\": false, \"error\": \""
            << JsonEscape(witness_failure) << "\"}";
      } else {
        out << "{\"certified\": false, \"error\": \"no class is "
               "satisfiable; nothing to witness\"}";
      }
    }
    if (guard != nullptr) {
      out << ",\n  \"resource\": " << guard->report().ToJson();
    }
    out << "\n}\n";
    return {exit_code, std::move(out).str(), ""};
  }
  for (ClassId cls : schema.AllClasses()) {
    out << (satisfiable[cls.value] ? "  satisfiable    "
                                   : "  UNSATISFIABLE  ")
        << schema.ClassName(cls) << "\n";
  }
  out << (all_ok ? "schema is strongly satisfiable"
                 : "schema has unpopulatable classes (see 'debug')")
      << "\n";
  std::string err;
  if (witness.has_value()) {
    if (witness_mode == "json") {
      out << WitnessToJson(*witness) << "\n";
    } else if (witness_mode == "dot") {
      out << WitnessToDot(*witness);
    } else {
      out << "witness (certified): " << witness->stats().individuals
          << " individual(s), " << witness->stats().tuples << " tuple(s)\n"
          << witness->interpretation().ToString();
    }
  } else if (witness_downgraded) {
    err = "witness synthesis stopped by a resource limit; the verdict "
          "above stands without a witness\n" +
          witness_failure + "\n";
    if (guard != nullptr) {
      err += guard->report().ToString() + "\n";
    }
  } else if (!witness_mode.empty()) {
    out << "no witness: no class is satisfiable\n";
  }
  return {exit_code, std::move(out).str(), std::move(err)};
}

CommandResult Lint(const std::string& text, const std::string& display_name,
                   bool json, ResourceGuard* guard) {
  // Parse leniently so empty ranges reach the `empty-range` rule with a
  // source position instead of failing the build.
  ParseSchemaOptions options;
  options.permit_empty_ranges = true;
  Result<NamedSchema> parsed = ParseSchema(text, options);
  if (!parsed.ok()) {
    return Fail(kExitFindings, parsed.status());
  }
  LintOptions lint_options;
  lint_options.guard = guard;
  std::vector<Diagnostic> diagnostics = RunLint(*parsed, lint_options);
  if (guard != nullptr && guard->tripped()) {
    // Truncated run: partial findings are not trustworthy verdicts.
    return ReportTrip(*guard, json);
  }
  std::ostringstream out;
  if (json) {
    out << DiagnosticsToJson(diagnostics) << "\n";
  } else {
    int errors = 0, warnings = 0, notes = 0;
    for (const Diagnostic& diagnostic : diagnostics) {
      out << FormatDiagnostic(diagnostic, display_name) << "\n";
      switch (diagnostic.severity) {
        case Severity::kError:
          ++errors;
          break;
        case Severity::kWarning:
          ++warnings;
          break;
        case Severity::kNote:
          ++notes;
          break;
      }
    }
    if (diagnostics.empty()) {
      out << "schema '" << parsed->name << "': no findings\n";
    } else {
      out << errors << " error(s), " << warnings << " warning(s), " << notes
          << " note(s)\n";
    }
  }
  return {HasErrors(diagnostics) ? kExitFindings : kExitOk,
          std::move(out).str(), ""};
}

CommandResult Implies(const Schema& schema,
                      const std::vector<std::string>& query,
                      ResourceGuard* guard) {
  ExpansionOptions options;
  options.guard = guard;
  if (query.size() == 3 && query[0] == "isa") {
    Result<ClassId> sub = ResolveClass(schema, query[1]);
    Result<ClassId> super = ResolveClass(schema, query[2]);
    if (!sub.ok() || !super.ok()) {
      return Fail(kExitFindings, sub.ok() ? super.status() : sub.status());
    }
    Result<bool> implied =
        ImplicationChecker::ImpliesIsa(schema, *sub, *super, options);
    if (!implied.ok()) {
      return FailStage(implied.status(), guard, /*json=*/false);
    }
    return {kExitOk,
            query[1] + " <= " + query[2] + ": " +
                (*implied ? "implied" : "not implied") + "\n",
            ""};
  }
  if (query.size() == 4 && query[0] == "card") {
    Result<ClassId> cls = ResolveClass(schema, query[1]);
    std::optional<RelationshipId> rel = schema.FindRelationship(query[2]);
    std::optional<RoleId> role = schema.FindRole(query[3]);
    if (!cls.ok() || !rel.has_value() || !role.has_value()) {
      return {kExitFindings, "", "unknown class, relationship or role\n"};
    }
    Result<std::uint64_t> min =
        ImplicationChecker::TightestImpliedMin(schema, *cls, *rel, *role,
                                               options);
    if (!min.ok()) {
      return FailStage(min.status(), guard, /*json=*/false);
    }
    Result<std::optional<std::uint64_t>> max =
        ImplicationChecker::TightestImpliedMax(
            schema, *cls, *rel, *role, /*search_limit=*/64, options);
    if (!max.ok()) {
      return FailStage(max.status(), guard, /*json=*/false);
    }
    return {kExitOk,
            "tightest implied cardinality of (" + query[1] + ", " +
                query[2] + ", " + query[3] + "): (" + std::to_string(*min) +
                ", " + (max->has_value() ? std::to_string(**max) : "*") +
                ")\n",
            ""};
  }
  return {kExitUsage, "",
          "implies: expected 'isa <Sub> <Super>' or 'card <Class> <Rel> "
          "<Role>'\n"};
}

}  // namespace command
}  // namespace crsat
