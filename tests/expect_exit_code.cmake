# Runs BIN with ARGS ('|'-separated) and fails unless it exits with status
# EXPECTED and explains itself on stderr.
#
#   cmake -DBIN=path -DARGS="a|b" -DEXPECTED=2 -P expect_exit_code.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit status '${rc}', expected "
                      "${EXPECTED}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(err STREQUAL "")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit status ${rc} without a message")
endif()
message(STATUS "${BIN} ${ARGS}: exit ${rc}: ${err}")
