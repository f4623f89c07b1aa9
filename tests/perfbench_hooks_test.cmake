# Checks that the Pahoehoe static libraries define every symbol perfbench's
# traced build wraps (PERFBENCH_HOOKS in perfbench/CMakeLists.txt), so a
# renamed or inlined entry point fails ctest instead of only the traced
# link. Reads perfbench/ and changes nothing there.
#
#   cmake -DHOOKS_FILE=<perfbench/CMakeLists.txt> -DNM=<nm>
#         -DLIBRARIES=<lib1.a;lib2.a;...> -P perfbench_hooks_test.cmake
#
# The hook list is the literal symbols of `set(PERFBENCH_HOOKS ...)` plus
# the names its `foreach(msg ...)` loop appends, with `${msg}` replaced by
# each message of the loop.
foreach(var HOOKS_FILE NM LIBRARIES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "perfbench_hooks_test: -D${var}=... is required")
  endif()
endforeach()

file(READ "${HOOKS_FILE}" text)
if(NOT text MATCHES "set\\(PERFBENCH_HOOKS([^)]*)\\)")
  message(FATAL_ERROR "no set(PERFBENCH_HOOKS ...) in ${HOOKS_FILE}")
endif()
string(REGEX MATCHALL "[^ \t\r\n]+" hooks "${CMAKE_MATCH_1}")
list(LENGTH hooks literal_count)

if(NOT text MATCHES "foreach\\(msg([^)]*)\\)")
  message(FATAL_ERROR "no foreach(msg ...) loop in ${HOOKS_FILE}")
endif()
string(REGEX MATCHALL "[^ \t\r\n]+" messages "${CMAKE_MATCH_1}")
if(NOT text MATCHES "list\\(APPEND PERFBENCH_HOOKS([^)]*)\\)")
  message(FATAL_ERROR "no list(APPEND PERFBENCH_HOOKS ...) in the loop")
endif()
string(REGEX MATCHALL "[^ \t\r\n]+" patterns "${CMAKE_MATCH_1}")
foreach(msg ${messages})
  foreach(pattern ${patterns})
    string(REPLACE "\${msg}" "${msg}" symbol "${pattern}")
    list(APPEND hooks "${symbol}")
  endforeach()
endforeach()
list(LENGTH hooks hook_count)
math(EXPR generated_count "${hook_count} - ${literal_count}")

set(defined "")
foreach(library ${LIBRARIES})
  execute_process(COMMAND "${NM}" --defined-only "${library}"
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${library}")
  endif()
  string(APPEND defined "${out}")
endforeach()
string(APPEND defined "\n")

set(missing "")
foreach(symbol ${hooks})
  string(FIND "${defined}" " ${symbol}\n" at)
  if(at EQUAL -1)
    list(APPEND missing "${symbol}")
  endif()
endforeach()

if(missing)
  list(LENGTH missing missing_count)
  string(REPLACE ";" "\n  " missing_lines "${missing}")
  message(FATAL_ERROR
          "${missing_count} of ${hook_count} perfbench hooks are not defined "
          "by the Pahoehoe libraries:\n  ${missing_lines}")
endif()
message(STATUS "all ${hook_count} perfbench hooks are defined "
               "(${literal_count} listed, ${generated_count} generated)")
