# Metric names: the sorted names an `--all --metrics-dump` run prints
# on its `obs:` lines must equal the list in a golden file, so a
# metric added or cut is a reviewed diff of that file.
#
#   cmake -DBENCH=<penelope_bench> -DGOLDEN=<dump_names.txt> \
#         -P tests/bench_dump_names.cmake
#
# A build with the observability layer compiled out
# (PENELOPE_NO_OBS) skips the emission sites that register their
# metric on first use, so there the printed names need only be a
# subset of the list.  A mismatch prints the list the golden file
# should hold now.

execute_process(COMMAND ${BENCH} --version
  OUTPUT_VARIABLE version RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT version MATCHES "obs: +compiled (in|out)")
  message(FATAL_ERROR "cannot read the obs build mode from ${BENCH} --version")
endif()
set(compiled "${CMAKE_MATCH_1}")

execute_process(COMMAND ${BENCH} --all --stride 32 --uops 8000 --jobs 1
    --metrics-dump
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--metrics-dump run exited ${rc}:\n${err}")
endif()

string(REGEX MATCHALL "(^|\n)obs: [^ \n]+" lines "${err}")
set(names "")
foreach(line IN LISTS lines)
  string(REGEX REPLACE "^\n?obs: " "" name "${line}")
  list(APPEND names "${name}")
endforeach()
list(SORT names)
list(JOIN names "\n" actual)

file(STRINGS "${GOLDEN}" expected_names)
list(JOIN expected_names "\n" expected)

if(compiled STREQUAL "in")
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "metric names differ from ${GOLDEN}; it should "
      "now read:\n${actual}")
  endif()
else()
  foreach(name IN LISTS names)
    list(FIND expected_names "${name}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "metric '${name}' is not in ${GOLDEN}")
    endif()
  endforeach()
endif()
