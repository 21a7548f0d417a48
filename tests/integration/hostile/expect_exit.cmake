# Exit-code check, run as a ctest entry:
#
#   cmake -DTOOL=<binary> -DARGS=<flag string> -DEXPECT=<exit code>
#         [-DNESTED_JSON=<path>] -P expect_exit.cmake
#
# Fails unless the tool exits with exactly EXPECT.  WILL_FAIL is not enough
# for hostile-input cases: it also passes when the tool aborts or
# segfaults, and the contract is a message plus exit 1.  NESTED_JSON first
# writes a file of 1 000 000 '[' characters to that path, for the JSON
# readers' nesting limit.
foreach(var TOOL ARGS EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_exit.cmake: missing -D${var}")
  endif()
endforeach()

if(DEFINED NESTED_JSON)
  string(REPEAT "[" 1000000 nested)
  file(WRITE "${NESTED_JSON}" "${nested}")
endif()

separate_arguments(tool_args NATIVE_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${tool_args}
  RESULT_VARIABLE run_rc OUTPUT_QUIET ERROR_VARIABLE run_err)
if(NOT "${run_rc}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit '${run_rc}', want ${EXPECT}: ${run_err}")
endif()
if("${run_err}" STREQUAL "")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${run_rc} without a message")
endif()
