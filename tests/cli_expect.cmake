# Runs one command and checks its exit status and stderr, for the rpas CLI
# tests in tests/CMakeLists.txt:
#   cmake -DSTATUS=<code> -DSTDERR=<regex> -P cli_expect.cmake -- <cmd> [args]
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE status OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${STATUS}")
  message(FATAL_ERROR "exit status '${status}', expected ${STATUS}; "
                      "stderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "stderr does not match '${STDERR}':\n${err}")
endif()
