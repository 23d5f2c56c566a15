# Runs one pimflow command with --metrics-out and checks its counter
# samples: each EXPECT entry ("<sample name> <value>") must appear as is,
# and with SAME_AS set, the SAME_COUNTERS samples must equal those of that
# second command. Both run in WORK_DIR, so --dir=. places trace output.
#
#   cmake -DPIMFLOW=<path/to/pimflow> -DWORK_DIR=<scratch dir> \
#         "-DARGS=run toy --plan=toy.plan --faults=comp:0:3:2" \
#         "-DEXPECT=codegen_plan_hits 4" \
#         "-DSAME_AS=run toy --plan=toy.plan" \
#         "-DSAME_COUNTERS=codegen_mappings_tried" \
#         -P tools/expect_counters.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Sets OUT_VAR to the `<sample name> <value>` lines of the command's
# exposition, with the exposition's `pimflow_` prefix dropped.
function(counter_samples ARGS_STRING OUT_VAR)
  separate_arguments(ARGV_LIST UNIX_COMMAND "${ARGS_STRING}")
  execute_process(
    COMMAND "${PIMFLOW}" ${ARGV_LIST} --metrics-out=metrics.txt
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE RC OUTPUT_QUIET ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "pimflow ${ARGS_STRING} exited with ${RC}:\n${ERR}")
  endif()
  file(STRINGS "${WORK_DIR}/metrics.txt" LINES REGEX "^pimflow_[a-z0-9_]+ ")
  set(SAMPLES "")
  foreach(LINE IN LISTS LINES)
    string(REGEX REPLACE "^pimflow_" "" LINE "${LINE}")
    list(APPEND SAMPLES "${LINE}")
  endforeach()
  set(${OUT_VAR} "${SAMPLES}" PARENT_SCOPE)
endfunction()

# Sets OUT_VAR to the sample line of counter NAME in SAMPLES, or "".
function(sample_of SAMPLES NAME OUT_VAR)
  set(FOUND "")
  foreach(LINE IN LISTS SAMPLES)
    if(LINE MATCHES "^${NAME} ")
      set(FOUND "${LINE}")
    endif()
  endforeach()
  set(${OUT_VAR} "${FOUND}" PARENT_SCOPE)
endfunction()

counter_samples("${ARGS}" MAIN)
foreach(WANT IN LISTS EXPECT)
  list(FIND MAIN "${WANT}" AT)
  if(AT EQUAL -1)
    string(REGEX REPLACE " .*" "" NAME "${WANT}")
    sample_of("${MAIN}" "${NAME}" GOT)
    message(FATAL_ERROR
      "pimflow ${ARGS}: expected '${WANT}', got '${GOT}'")
  endif()
endforeach()

if(SAME_AS)
  counter_samples("${SAME_AS}" OTHER)
  foreach(NAME IN LISTS SAME_COUNTERS)
    sample_of("${MAIN}" "${NAME}" A)
    sample_of("${OTHER}" "${NAME}" B)
    if(NOT A OR NOT A STREQUAL B)
      message(FATAL_ERROR
        "${NAME} differs: pimflow ${ARGS} has '${A}', "
        "pimflow ${SAME_AS} has '${B}'")
    endif()
  endforeach()
endif()
message(STATUS "pimflow ${ARGS}: counters as expected")
