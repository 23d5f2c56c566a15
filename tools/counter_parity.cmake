# Proves a run's counters do not depend on which exports it was asked for.
# Runs `pimflow run toy --metrics-out` three times, each in a fresh
# directory (so every run profiles from a cold cache): alone, with
# --trace-out, and with --perf-report. Fails unless the three expositions
# carry identical counter samples.
#
#   cmake -DPIMFLOW=<path/to/pimflow> -DWORK_DIR=<scratch dir> \
#         -P tools/counter_parity.cmake

set(VARIANTS plain trace report)
set(EXTRA_plain "")
set(EXTRA_trace "--trace-out=${WORK_DIR}/trace/toy.trace.json")
set(EXTRA_report "--perf-report=${WORK_DIR}/report/toy.perf.json")

foreach(V ${VARIANTS})
  file(REMOVE_RECURSE "${WORK_DIR}/${V}")
  file(MAKE_DIRECTORY "${WORK_DIR}/${V}")
  execute_process(
    COMMAND "${PIMFLOW}" run toy --jobs=1 "--dir=${WORK_DIR}/${V}"
            "--metrics-out=${WORK_DIR}/${V}/toy.metrics.txt" ${EXTRA_${V}}
    RESULT_VARIABLE RC OUTPUT_QUIET)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "pimflow run (${V}) exited with ${RC}")
  endif()

  # A counter sample is the line after its `# TYPE <name> counter` line.
  file(STRINGS "${WORK_DIR}/${V}/toy.metrics.txt" LINES)
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
  message(FATAL_ERROR "no counter samples in ${WORK_DIR}/plain")
endif()
foreach(V trace report)
  if(NOT COUNTERS_${V} STREQUAL COUNTERS_plain)
    string(REPLACE ";" "\n  " A "${COUNTERS_plain}")
    string(REPLACE ";" "\n  " B "${COUNTERS_${V}}")
    message(FATAL_ERROR
      "counters differ with ${EXTRA_${V}}:\n--metrics-out alone:\n  ${A}\n"
      "with the extra export:\n  ${B}")
  endif()
endforeach()
list(LENGTH COUNTERS_plain N)
message(STATUS "${N} counter samples identical across all three runs")
