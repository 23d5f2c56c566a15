# Proves a run's counters depend only on its arguments. Runs
# `pimflow run toy --metrics-out` five times in one directory: alone, the
# same again, with --trace-out, with --perf-report, and with --stats.
# Fails unless the five expositions carry identical counter samples, and
# unless the runs left no file behind but the ones their flags named.
#
#   cmake -DPIMFLOW=<path/to/pimflow> -DWORK_DIR=<scratch dir> \
#         -P tools/counter_parity.cmake

set(VARIANTS plain again trace report stats)
set(EXTRA_plain "")
set(EXTRA_again "")
set(EXTRA_trace "--trace-out=toy.trace.json")
set(EXTRA_report "--perf-report=toy.perf.json")
set(EXTRA_stats "--stats")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(V ${VARIANTS})
  execute_process(
    COMMAND "${PIMFLOW}" run toy --jobs=1 "--metrics-out=${V}.metrics.txt"
            ${EXTRA_${V}}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE RC OUTPUT_QUIET)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "pimflow run (${V}) exited with ${RC}")
  endif()

  # A counter sample is the line after its `# TYPE <name> counter` line.
  file(STRINGS "${WORK_DIR}/${V}.metrics.txt" LINES)
  set(COUNTERS_${V} "")
  set(FAMILY "")
  foreach(LINE IN LISTS LINES)
    if(LINE MATCHES "^# TYPE ([^ ]+) counter$")
      set(FAMILY "${CMAKE_MATCH_1}")
    elseif(FAMILY AND LINE MATCHES "^${FAMILY} ")
      list(APPEND COUNTERS_${V} "${LINE}")
      set(FAMILY "")
    endif()
  endforeach()
endforeach()

if(NOT COUNTERS_plain)
  message(FATAL_ERROR "no counter samples in ${WORK_DIR}/plain.metrics.txt")
endif()
foreach(V again trace report stats)
  if(NOT COUNTERS_${V} STREQUAL COUNTERS_plain)
    string(REPLACE ";" "\n  " A "${COUNTERS_plain}")
    string(REPLACE ";" "\n  " B "${COUNTERS_${V}}")
    message(FATAL_ERROR
      "counters differ in the '${V}' run (${EXTRA_${V}}):\n"
      "first run:\n  ${A}\n'${V}' run:\n  ${B}")
  endif()
endforeach()

file(GLOB LEFT RELATIVE "${WORK_DIR}" "${WORK_DIR}/*")
list(SORT LEFT)
set(EXPECTED again.metrics.txt plain.metrics.txt report.metrics.txt
             stats.metrics.txt toy.perf.json toy.trace.json
             trace.metrics.txt)
if(NOT LEFT STREQUAL EXPECTED)
  message(FATAL_ERROR
    "runs left unexpected files in ${WORK_DIR}: ${LEFT}")
endif()
list(LENGTH COUNTERS_plain N)
message(STATUS "${N} counter samples identical across all five runs")
