# Merge into a store: two --shard runs write shard files, a --merge
# run with --cache-dir imports them into the store, and a rerun on
# that store must simulate nothing.
#
#   cmake -DBENCH=<penelope_bench> -DDIR=<scratch directory> \
#         -P tests/bench_merge_store.cmake
#
# DIR is emptied first.

set(run fig6 --stride 32 --uops 8000)
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

foreach(i 0 1)
  execute_process(COMMAND ${BENCH} ${run} --shard ${i}/2
      --shard-out ${DIR}/s${i}.bin
    ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "shard ${i} exited ${rc}:\n${err}")
  endif()
endforeach()

execute_process(COMMAND ${BENCH} ${run} --cache-dir ${DIR}/store
    --merge ${DIR}/s0.bin ${DIR}/s1.bin
  OUTPUT_VARIABLE merged ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "merge exited ${rc}:\n${err}")
endif()

execute_process(COMMAND ${BENCH} ${run} --cache-dir ${DIR}/store
  OUTPUT_VARIABLE warm ERROR_VARIABLE warm_err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rerun exited ${rc}:\n${warm_err}")
endif()
if(NOT warm STREQUAL merged)
  message(FATAL_ERROR "rerun stdout differs from the merge:\n--- merge\n"
    "${merged}--- rerun\n${warm}")
endif()
if(NOT warm_err MATCHES "result cache: [0-9]+ hits, 0 misses, 0 stores")
  message(FATAL_ERROR "the merge did not persist its imports:\n"
    "${warm_err}")
endif()
