// Fixture: the shared command layer reaching up into the daemon it
// serves — crsat_cli would drag sockets and the scheduler along.
#include "src/reasoner/satisfiability.h"
#include "src/server/protocol.h"

int CommandOverTheWire() { return 0; }
