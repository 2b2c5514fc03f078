#ifndef CRSAT_COMMAND_COMMAND_H_
#define CRSAT_COMMAND_COMMAND_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/resource_guard.h"
#include "src/base/result.h"
#include "src/cr/ids.h"
#include "src/cr/schema.h"
#include "src/cr/schema_text.h"
#include "src/expansion/expansion.h"
#include "src/reasoner/satisfiability.h"

namespace crsat {
namespace command {

/// The served commands — `check`, `lint`, `implies` — run once for both
/// front ends: the one-shot `crsat_cli` writes a `CommandResult` to its
/// stdout/stderr, and crsatd (src/server/handlers.h) maps it onto a
/// response. Because both print the same bytes from the same call, the
/// daemon's verdict payloads equal the CLI's stdout by construction.
///
/// Exit codes (the CLI contract, carried in crsatd's status byte):
inline constexpr int kExitOk = 0;        ///< Success, no adverse findings.
inline constexpr int kExitFindings = 1;  ///< Unsat classes, lint errors,
                                         ///< or a runtime failure.
inline constexpr int kExitUsage = 2;     ///< Malformed request.
inline constexpr int kExitResource = 3;  ///< A resource limit tripped.

/// One command's outcome: its exit code and the exact bytes the CLI
/// writes to stdout (`out`) and stderr (`err`).
struct CommandResult {
  int exit_code = kExitOk;
  std::string out;
  std::string err;
};

/// The verdicts of `DecideClasses`. When the expansion decided them, the
/// expansion and checker that did so come along (heap-held so the
/// checker's reference to the expansion survives moves), and witness
/// synthesis reuses the checker's cached support. Both are null when the
/// Lenzerini–Nobili route decided.
struct ClassVerdicts {
  std::unique_ptr<Expansion> expansion;
  std::unique_ptr<SatisfiabilityChecker> checker;
  /// One flag per schema class, indexed by ClassId.
  std::vector<bool> satisfiable;
};

/// The one verdict function. With `allow_ln_route` set and
/// `IncrementalReasoningEnabled()`, a schema inside the Lenzerini–Nobili
/// fragment (no ISA, refinements or Section 5 extensions; see
/// src/baseline/ln_reasoner.h) is decided by that baseline, with one
/// unknown per class. On such a schema the expansion still enumerates
/// every subset of classes as a compound class, so this route is the only
/// one that finishes on large ISA-free inputs; the conformance harness
/// checks that both give the same verdicts. Every other schema, and every
/// caller that needs the checker (witness synthesis) or referees the
/// expansion, takes the full pipeline: provably-empty facts
/// (src/analysis/empty_classes.h) feed the expansion's compound pruning
/// and the checker's per-class short-circuit, then one support computation
/// decides every class. `guard` may be null (unlimited); it travels with
/// the expansion into every layer downstream.
Result<ClassVerdicts> DecideClasses(const Schema& schema,
                                    ResourceGuard* guard,
                                    bool allow_ln_route);

/// `crsat_cli check`: satisfiability of every class (§3: expansion, the
/// system Ψ_S, acceptable support). `witness_mode` is "" (off), "text",
/// "json" or "dot"; a witness is synthesized only when some class is
/// satisfiable, and only a certified one is printed. A resource limit
/// tripped during synthesis keeps the verdict and its exit code and
/// reports the trip on `err`. `json` renders the whole report as JSON,
/// including the process-wide solver and recovery counters. `guard` may
/// be null (unlimited).
CommandResult Check(const NamedSchema& parsed, bool json,
                    const std::string& witness_mode, ResourceGuard* guard);

/// `crsat_cli lint`: structural diagnostics on a lenient parse of `text`
/// (empty ranges reach the `empty-range` rule instead of failing the
/// parse). `display_name` prefixes source positions in text mode.
CommandResult Lint(const std::string& text, const std::string& display_name,
                   bool json, ResourceGuard* guard);

/// `crsat_cli implies` (§4: implication through unsatisfiability).
/// `query` is {"isa", Sub, Super} or {"card", Class, Rel, Role}; an
/// unknown name is a failure, any other shape a usage error.
CommandResult Implies(const Schema& schema,
                      const std::vector<std::string>& query,
                      ResourceGuard* guard);

/// The class named `name`, or NotFound("no class named '<name>'").
Result<ClassId> ResolveClass(const Schema& schema, const std::string& name);

}  // namespace command
}  // namespace crsat

#endif  // CRSAT_COMMAND_COMMAND_H_
