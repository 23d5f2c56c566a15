# Runs one pimflow command and requires an exact exit code and a
# diagnostic slug on stderr. A WILL_FAIL test accepts any non-zero exit,
# an abort included; this one tells a usage error (exit 2) from a crash.
#
#   cmake -DPIMFLOW=<path/to/pimflow> "-DARGS=run toy --faults=bogus" \
#         -DRC=2 -DDIAG=fault.bad-spec -P tools/expect_exit.cmake

separate_arguments(ARGV_LIST UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${PIMFLOW}" ${ARGV_LIST}
  RESULT_VARIABLE GOT_RC OUTPUT_QUIET ERROR_VARIABLE ERR)
if(NOT GOT_RC STREQUAL "${RC}")
  message(FATAL_ERROR
    "pimflow ${ARGS} exited with '${GOT_RC}', expected ${RC}:\n${ERR}")
endif()
string(FIND "${ERR}" "${DIAG}" AT)
if(AT EQUAL -1)
  message(FATAL_ERROR
    "pimflow ${ARGS} printed no ${DIAG} diagnostic:\n${ERR}")
endif()
message(STATUS "pimflow ${ARGS}: exit ${RC} with ${DIAG}")
