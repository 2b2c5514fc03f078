#ifndef CRSAT_TOOLS_SRCLINT_SRCLINT_H_
#define CRSAT_TOOLS_SRCLINT_SRCLINT_H_

// srclint — a dependency-free source-level checker for crsat's own
// project invariants, the ones a compiler cannot see (DESIGN.md §12):
//
//   include-layering    src/ directories may only include the layers the
//                       declarative table in srclint.cc allows; in
//                       particular src/oracle/ (minus the differential
//                       driver) must stay source-isolated from
//                       expansion//lp//flow/, upgrading PR 5's link-time
//                       isolation to a source-level gate.
//   server-layering     src/server/ (the crsatd daemon) is a strict
//                       leaf: no other src/ directory may include it —
//                       not even the include-layering exemptions. The
//                       reasoning core must stay embeddable without the
//                       daemon (crsat_server links crsat, never back).
//   unguarded-loop      a .cc in expansion//lp//flow//witness/ that
//                       contains a loop must reference a ResourceGuard
//                       somewhere (resource-bounded reasoning, DESIGN.md
//                       §9) or carry an explicit escape hatch:
//                       `// srclint: allow(unguarded-loop): <reason>`.
//   banned-construct    std::rand, argless time(), raw new[] anywhere in
//                       src/; `double`/`float` inside the exact-arithmetic
//                       tiers src/lp/ and src/math/ (escape hatch:
//                       allow(float-arith)).
//   certify-non-bypass  `CertifiedWitness` may only be defined,
//                       befriended, or constructed in
//                       src/witness/certify.*, and its `Certify` factory
//                       invoked only from the witness pipeline
//                       (src/witness/): nobody mints a certificate
//                       without running ModelChecker.
//   failpoint-hygiene   every `CRSAT_FAILPOINT(...)` site must pass a
//                       string literal naming an id from the static
//                       registry in src/base/failpoint.cc (mirrored in
//                       srclint.cc with a drift-guard test) — a typo'd or
//                       computed id silently never fires, which is worse
//                       than a crash in a fault-injection seam. And
//                       src/oracle/ must contain no sites at all: the
//                       ground truth stays fault-free (the chaos driver
//                       arms faults through the registry API instead).
//   bad-allow           an escape-hatch comment missing its reason string
//                       (reasons are mandatory: the hatch documents *why*
//                       the invariant is safe to waive, or it is denied).
//
// The checker is deliberately lexical: a hand-rolled C++ tokenizer (the
// same idiom as src/cr/text_lexer.h — no LLVM, no external deps) over
// which each rule matches token patterns. That keeps it fast enough to
// run as a tier-1 ctest over the whole tree and trivially auditable.
// Lexical also means approximate; rules are tuned so the *absence* of a
// finding is meaningful on this codebase, and every rule has fixture
// tests pinning both the catch and the clean pass (tests/srclint_test.cc).

#include <string>
#include <string_view>
#include <vector>

namespace srclint {

/// One rule violation at a source location.
struct Finding {
  std::string file;  // Path as given to the scan (repo-relative in CI).
  int line = 1;
  std::string rule;     // e.g. "include-layering".
  std::string message;  // Human-readable, single line.
};

/// A minimal C++ token. Comments are not tokens (escape hatches inside
/// them are collected separately); preprocessor directives collapse to a
/// single `kPreprocessor` token holding the whole logical line.
enum class TokenKind {
  kIdentifier,
  kNumber,
  kString,        // String or char literal (raw strings included).
  kPunct,         // One punctuation character.
  kPreprocessor,  // Full directive text, continuations joined.
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;
  int line = 1;
};

/// An `// srclint: allow(<rule>)[: <reason>]` escape hatch found in a
/// comment. A hatch without a non-empty reason is itself a finding.
struct AllowPragma {
  std::string rule;
  std::string reason;
  int line = 1;
};

/// Tokenization result for one file.
struct ScannedFile {
  std::vector<Token> tokens;
  std::vector<AllowPragma> allows;
};

/// Tokenizes C++ source text. Never fails: unexpected bytes become
/// single-character punct tokens (the rules simply won't match them).
ScannedFile Tokenize(std::string_view text);

/// Runs every rule over one file's content. `path` must be the
/// repo-relative path (e.g. "src/lp/simplex.cc") — rules dispatch on it.
std::vector<Finding> CheckSource(const std::string& path,
                                 std::string_view content);

/// Scans `src/**` (*.h, *.cc) under `repo_root` and returns all findings,
/// sorted by file then line. Appends scanned file paths to `*scanned`
/// when non-null. IO errors surface as findings with rule "io-error".
std::vector<Finding> CheckTree(const std::string& repo_root,
                               std::vector<std::string>* scanned = nullptr);

/// The failpoint-hygiene rule's mirrored catalog of registered failpoint
/// ids (sorted). Exposed so tests can cross-check it against the real
/// registry in src/base/failpoint.cc and fail on drift.
const std::vector<std::string>& FailpointRegistry();

/// Render findings: one `file:line: [rule] message` line each.
std::string FindingsToText(const std::vector<Finding>& findings);

/// Single JSON object: {"findings": [...], "count": N}.
std::string FindingsToJson(const std::vector<Finding>& findings);

}  // namespace srclint

#endif  // CRSAT_TOOLS_SRCLINT_SRCLINT_H_
