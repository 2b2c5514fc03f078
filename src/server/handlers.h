#ifndef CRSAT_SERVER_HANDLERS_H_
#define CRSAT_SERVER_HANDLERS_H_

#include <string>

#include "src/base/resource_guard.h"
#include "src/server/protocol.h"
#include "src/server/session.h"

namespace crsat {
namespace server {

/// Outcome of one schema request: the response status byte plus the
/// response payload (for kOk/kFindings, the exact stdout text the
/// one-shot CLI would have printed; for kFailed, its exact stderr text;
/// otherwise a human-readable reason).
struct HandlerResult {
  ResponseStatus status = ResponseStatus::kOk;
  std::string payload;
};

/// Executes one schema-level request (`parse`, `check`, `lint`,
/// `implications`, `witness`) against `session`, under a per-request
/// `ResourceGuard` built from the frame's budget headers clamped by the
/// server-wide `caps` (protocol.h `ClampBudget`).
///
/// Parity contract: kCheck, kLint, kWitness and kImplications call the
/// same src/command/ function as `crsat_cli check|lint|check --witness=M|
/// implies`, and the result maps onto the response in one place — exit 0
/// is kOk and exit 1 kFindings, both with the CLI's stdout as payload;
/// exit 1 with nothing on stdout is kFailed with the CLI's stderr; exit 2
/// is kBadRequest; exit 3 is kResource with the trip report — the
/// degradation ladder's honest UNKNOWN, never a guessed verdict. So the
/// payloads equal the CLI's output by construction.
///
/// `stats` and `shutdown` are service-level requests handled by the
/// server itself, not here; routing one in returns kBadRequest.
HandlerResult HandleRequest(Session& session, const Frame& request,
                            const ResourceLimits& caps);

}  // namespace server
}  // namespace crsat

#endif  // CRSAT_SERVER_HANDLERS_H_
