// Fixture: the command layer including downward is fine.
#include "src/analysis/lint_engine.h"
#include "src/base/string_util.h"
#include "src/witness/witness_text.h"

int CommandQuietly() { return 0; }
