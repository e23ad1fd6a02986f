# Warm store: a cold run fills a --cache-dir store, then the same run
# at --jobs 1 must reproduce its stdout byte for byte from lookups
# alone, and the store must be a single file.
#
#   cmake -DBENCH=<penelope_bench> -DDIR=<scratch directory> \
#         -P tests/bench_store_warm.cmake
#
# DIR is emptied first.

set(run fig6 --stride 64 --uops 2000 --cache-dir ${DIR})
file(REMOVE_RECURSE "${DIR}")

execute_process(COMMAND ${BENCH} ${run} --jobs 4
  OUTPUT_VARIABLE cold ERROR_VARIABLE cold_err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cold run exited ${rc}:\n${cold_err}")
endif()
if(NOT cold_err MATCHES "result cache: [0-9]+ hits, [0-9]+ misses, [1-9][0-9]* stores")
  message(FATAL_ERROR "cold run stored nothing:\n${cold_err}")
endif()

execute_process(COMMAND ${BENCH} ${run} --jobs 1
  OUTPUT_VARIABLE warm ERROR_VARIABLE warm_err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm run exited ${rc}:\n${warm_err}")
endif()
if(NOT warm STREQUAL cold)
  message(FATAL_ERROR "warm stdout differs from cold:\n--- cold\n"
    "${cold}--- warm\n${warm}")
endif()
if(NOT warm_err MATCHES "result cache: [0-9]+ hits, 0 misses, 0 stores")
  message(FATAL_ERROR "warm run was not served from the store:\n"
    "${warm_err}")
endif()

file(GLOB files LIST_DIRECTORIES true "${DIR}/*" "${DIR}/.*")
list(LENGTH files count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "${DIR} holds ${count} entries, not one "
    "store file: ${files}")
endif()
