# Exercises the crsat_cli exit-code contract end to end:
#   0  success, no findings
#   1  findings (unsatisfiable classes, lint diagnostics) or failure
#   2  usage error (bad subcommand, malformed flag value)
#   3  resource limit tripped (deadline / compound budget / memory budget)
#
# Run as: cmake -DCRSAT_CLI=<binary> -DCRSAT_SOURCE_DIR=<repo> -P this-file

if(NOT DEFINED CRSAT_CLI OR NOT DEFINED CRSAT_SOURCE_DIR)
  message(FATAL_ERROR "pass -DCRSAT_CLI=... and -DCRSAT_SOURCE_DIR=...")
endif()

set(SCHEMAS "${CRSAT_SOURCE_DIR}/examples/schemas")

function(expect_exit expected)
  execute_process(
    COMMAND ${CRSAT_CLI} ${ARGN}
    RESULT_VARIABLE actual
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT actual EQUAL expected)
    string(JOIN " " argv ${ARGN})
    message(FATAL_ERROR
      "crsat_cli ${argv}: expected exit ${expected}, got ${actual}")
  endif()
endfunction()

# Usage errors -> 2. (Flags follow the schema path: `check <file> [flags]`.)
expect_exit(2)
expect_exit(2 frobnicate)
expect_exit(2 check)
expect_exit(2 check "${SCHEMAS}/meeting.cr" --timeout-ms abc)
expect_exit(2 check "${SCHEMAS}/meeting.cr" --timeout-ms)
expect_exit(2 check "${SCHEMAS}/meeting.cr" --max-compounds -7)

# Clean runs -> 0 (with and without guard flags; generous limits must not
# change the verdict).
expect_exit(0 check "${SCHEMAS}/meeting.cr")
expect_exit(0 check "${SCHEMAS}/meeting.cr" --json)
expect_exit(0 check "${SCHEMAS}/meeting.cr" --timeout-ms 60000
  --max-compounds 1000000 --max-memory-mb 1024)

# Findings -> 1.
expect_exit(1 check "${SCHEMAS}/figure1.cr")
expect_exit(1 lint "${SCHEMAS}/lint_demo.cr")
expect_exit(1 check "${SCHEMAS}/no_such_file.cr")

# --witness keeps the verdict-driven exit code: certified witness on a
# satisfiable schema, nothing to witness on an all-unsat one, and bad
# renderer names are usage errors.
expect_exit(0 check "${SCHEMAS}/meeting.cr" --witness)
expect_exit(0 check "${SCHEMAS}/meeting.cr" --witness=json --json)
expect_exit(0 check "${SCHEMAS}/meeting.cr" --witness=dot)
expect_exit(1 check "${SCHEMAS}/figure1.cr" --witness)
expect_exit(2 check "${SCHEMAS}/meeting.cr" --witness=yaml)

# A resource limit tripped *during witness synthesis* downgrades to the
# already-computed SAT verdict (exit 0, witness replaced by the trip
# report); the same limit tripping before the verdict still exits 3.
expect_exit(0 check "${SCHEMAS}/witness_heavy.cr" --witness --max-memory-mb 1)
expect_exit(0 check "${SCHEMAS}/witness_heavy.cr" --witness=json --json
  --max-memory-mb 1)
expect_exit(3 check "${SCHEMAS}/witness_heavy.cr" --witness --timeout-ms 0)

# Resource trips -> 3, in both output modes.
expect_exit(3 check "${SCHEMAS}/meeting.cr" --timeout-ms 0)
expect_exit(3 check "${SCHEMAS}/meeting.cr" --max-compounds 5)
expect_exit(3 check "${SCHEMAS}/meeting.cr" --json --max-compounds 5)
expect_exit(3 lint "${SCHEMAS}/lint_demo.cr" --timeout-ms 0)

# Injected faults via CRSAT_FAILPOINTS: a simulated allocation failure is
# a resource limit (exit 3) even with no guard flag configured, and a
# recoverable fault (warm-start rejection) degrades without changing the
# verdict or exit code.
function(expect_exit_env expected env)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${env} ${CRSAT_CLI} ${ARGN}
    RESULT_VARIABLE actual
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT actual EQUAL expected)
    string(JOIN " " argv ${ARGN})
    message(FATAL_ERROR
      "${env} crsat_cli ${argv}: expected exit ${expected}, got ${actual}")
  endif()
endfunction()
expect_exit_env(3 "CRSAT_FAILPOINTS=alloc/expansion=nth:1"
  check "${SCHEMAS}/meeting.cr")
expect_exit_env(3 "CRSAT_FAILPOINTS=alloc/simplex=nth:1"
  check "${SCHEMAS}/meeting.cr")
expect_exit_env(0 "CRSAT_FAILPOINTS=lp/warm_start_reject=every:2"
  check "${SCHEMAS}/meeting.cr")
expect_exit_env(1 "CRSAT_FAILPOINTS=incremental/force_cold"
  check "${SCHEMAS}/figure1.cr")

# `model` on an unsatisfiable class: exit 1, the refusal on stderr,
# nothing on stdout.
execute_process(
  COMMAND ${CRSAT_CLI} model "${SCHEMAS}/figure1.cr" C
  RESULT_VARIABLE model_exit
  OUTPUT_VARIABLE model_out
  ERROR_VARIABLE model_err)
set(model_expected_err
  "InvalidArgument: class 'C' is unsatisfiable; no model can populate it\n")
if(NOT model_exit EQUAL 1 OR NOT model_out STREQUAL ""
   OR NOT model_err STREQUAL model_expected_err)
  message(FATAL_ERROR
    "crsat_cli model figure1.cr C: expected exit 1 and\n"
    "${model_expected_err}on stderr only, got exit ${model_exit}\n"
    "--- stdout\n${model_out}--- stderr\n${model_err}")
endif()

# A generated ISA-free schema of 24 classes: a ring C0 -> ... -> C11 -> C0
# where every C_i owns two R_i tuples and every C_{i+1} absorbs at most
# one (so |C_{i+1}| >= 2|C_i| around the ring and every C_i is finitely
# unsatisfiable), plus a satisfiable chain D0 -> ... -> D11. The expansion
# would enumerate every subset of the 24 classes and exceed its limits;
# plain `check` must still give every verdict under the default limits.
set(ring_classes "")
set(ring_body "")
foreach(i RANGE 11)
  math(EXPR next "(${i} + 1) % 12")
  list(APPEND ring_classes "C${i}")
  string(APPEND ring_body
    "  relationship R${i}(P${i}: C${i}, Q${i}: C${next});\n"
    "  card C${i} in R${i}.P${i} = (2, *);\n"
    "  card C${next} in R${i}.Q${i} = (0, 1);\n")
endforeach()
foreach(i RANGE 11)
  list(APPEND ring_classes "D${i}")
endforeach()
foreach(i RANGE 10)
  math(EXPR next "${i} + 1")
  string(APPEND ring_body
    "  relationship S${i}(A${i}: D${i}, B${i}: D${next});\n"
    "  card D${i} in S${i}.A${i} = (1, 1);\n")
endforeach()
list(JOIN ring_classes ", " ring_class_list)
set(ring_schema "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_isa_free_ring.cr")
file(WRITE "${ring_schema}"
  "schema IsaFreeRing {\n  class ${ring_class_list};\n${ring_body}}\n")
execute_process(
  COMMAND ${CRSAT_CLI} check "${ring_schema}"
  RESULT_VARIABLE ring_exit
  OUTPUT_VARIABLE ring_out
  ERROR_VARIABLE ring_err)
set(ring_expected "")
foreach(i RANGE 11)
  string(APPEND ring_expected "  UNSATISFIABLE  C${i}\n")
endforeach()
foreach(i RANGE 11)
  string(APPEND ring_expected "  satisfiable    D${i}\n")
endforeach()
string(APPEND ring_expected
  "schema has unpopulatable classes (see 'debug')\n")
if(NOT ring_exit EQUAL 1 OR NOT ring_out STREQUAL ring_expected
   OR NOT ring_err STREQUAL "")
  message(FATAL_ERROR
    "crsat_cli check on a 24-class ISA-free schema: expected exit 1 and "
    "every verdict, got exit ${ring_exit}\n"
    "--- stdout\n${ring_out}--- stderr\n${ring_err}")
endif()

message(STATUS "cli_exit_test: all exit-code expectations held")
