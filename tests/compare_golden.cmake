# Runs a bench binary and requires its stdout to equal a committed
# golden file byte for byte — the "fig8/fig9 tables are unchanged"
# gate. Usage (REPRO_SCALE comes from the caller's environment):
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> \
#         -P tests/compare_golden.cmake
#
# On a mismatch the actual output is left in ACTUAL for diffing.
foreach(var BENCH GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
file(WRITE "${ACTUAL}" "${actual}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()

file(READ "${GOLDEN}" golden)
if(NOT actual STREQUAL golden)
  message(FATAL_ERROR
          "stdout of ${BENCH} differs from ${GOLDEN}; "
          "see: diff ${GOLDEN} ${ACTUAL}")
endif()
message(STATUS "stdout matches ${GOLDEN}")
