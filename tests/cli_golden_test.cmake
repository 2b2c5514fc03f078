# Golden output of `crsat_cli check`: for every schema under
# examples/schemas/ that `check` accepts, stdout and the exit code must
# equal the expected files under tests/golden/check/. Every other file
# there must be refused with a message on stderr and nothing on stdout,
# so a new example schema cannot slip past without a golden file.
#
# Run as: cmake -DCRSAT_CLI=<binary> -DCRSAT_SOURCE_DIR=<repo> -P this-file

if(NOT DEFINED CRSAT_CLI OR NOT DEFINED CRSAT_SOURCE_DIR)
  message(FATAL_ERROR "pass -DCRSAT_CLI=... and -DCRSAT_SOURCE_DIR=...")
endif()

set(SCHEMAS "${CRSAT_SOURCE_DIR}/examples/schemas")
set(GOLDEN "${CRSAT_SOURCE_DIR}/tests/golden/check")

# Expected exit code per accepted schema (0 all satisfiable, 1 some class
# unsatisfiable). The ISA-free ones (finitely_unsat_binary_tree,
# witness_heavy) are decided by the Lenzerini–Nobili route.
set(EXPECTED_EXIT_figure1 1)
set(EXPECTED_EXIT_finitely_unsat_binary_tree 1)
set(EXPECTED_EXIT_finitely_unsat_chain 1)
set(EXPECTED_EXIT_finitely_unsat_pair 1)
set(EXPECTED_EXIT_finitely_unsat_ternary 1)
set(EXPECTED_EXIT_meeting 0)
set(EXPECTED_EXIT_university 0)
set(EXPECTED_EXIT_witness_heavy 0)

file(GLOB schema_files "${SCHEMAS}/*.cr")
set(compared 0)
foreach(schema_file ${schema_files})
  get_filename_component(name "${schema_file}" NAME_WE)
  execute_process(
    COMMAND ${CRSAT_CLI} check "${schema_file}"
    RESULT_VARIABLE actual_exit
    OUTPUT_VARIABLE actual_out
    ERROR_VARIABLE actual_err)
  if(NOT DEFINED EXPECTED_EXIT_${name})
    if(NOT actual_out STREQUAL "" OR actual_err STREQUAL "")
      message(FATAL_ERROR
        "crsat_cli check ${name}.cr: accepted, but has no golden file "
        "under tests/golden/check/")
    endif()
    continue()
  endif()
  file(READ "${GOLDEN}/${name}.out" expected_out)
  if(NOT actual_out STREQUAL expected_out)
    message(FATAL_ERROR
      "crsat_cli check ${name}.cr: stdout differs from ${name}.out\n"
      "--- expected\n${expected_out}--- actual\n${actual_out}")
  endif()
  if(NOT actual_exit EQUAL EXPECTED_EXIT_${name})
    message(FATAL_ERROR
      "crsat_cli check ${name}.cr: expected exit "
      "${EXPECTED_EXIT_${name}}, got ${actual_exit}")
  endif()
  math(EXPR compared "${compared} + 1")
endforeach()

if(NOT compared EQUAL 8)
  message(FATAL_ERROR
    "cli_golden_test: compared ${compared} schemas, expected 8")
endif()
message(STATUS "cli_golden_test: ${compared} check outputs match")
