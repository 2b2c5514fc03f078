// Fixture: the daemon calling into the command layer is fine.
#include "src/command/command.h"

int HandleQuietly() { return 0; }
