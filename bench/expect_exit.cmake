# Runs a command and fails unless it exits with the expected code.
#
#   cmake -DCMD=<program> -DARGS=<arg>|<arg>|... -DEXPECT=<code> \
#         -P expect_exit.cmake
#
# Arguments are '|'-separated so that add_test can pass them as one value.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CMD}" ${args} RESULT_VARIABLE rc TIMEOUT 60)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${CMD} ${ARGS}: exit '${rc}', expected ${EXPECT}")
endif()
