# Golden digests: the md5 of each experiment's stdout, and at --jobs 1
# of the result store it fills, compared with the digests recorded in
# a golden file.
#
#   cmake -DBENCH=<penelope_bench> -DGOLDEN=<digests.txt> \
#         -DDIR=<scratch directory> \
#         [-DSCALE="--stride 32 --uops 8000"] [-DJOBS=1] \
#         [-DEXPERIMENTS="table3 table4"] \
#         -P tests/golden_digests.cmake
#
# SCALE defaults to the CI scale above, JOBS to 1 and EXPERIMENTS to
# every experiment `--list` names.  Each experiment runs alone with
# `--cache-dir` on an emptied DIR; its stdout is pinned as
# `<name> <md5>`.  At --jobs 1 the store file is byte-stable, so its
# md5 is pinned too, as `<name>.store <md5>`: a payload change that no
# printed cell shows still moves it.  At other job counts the store's
# record order follows the workers, so only stdout is pinned.
#
# The golden file records the kResultCacheSalt it was made under.
# Results may only change together with a salt bump: a digest that
# moves while the salt stays put fails with "results changed without a
# salt bump".  Either way a mismatch prints the lines the golden file
# should hold now (reproducible by hand with
# `penelope_bench <name> --stride 32 --uops 8000 --cache-dir d | md5sum`
# and `md5sum d/results.bin` on an empty d).

if(NOT DEFINED SCALE)
  set(SCALE "--stride 32 --uops 8000")
endif()
separate_arguments(SCALE UNIX_COMMAND "${SCALE}")
if(NOT DEFINED JOBS)
  set(JOBS 1)
endif()

execute_process(COMMAND ${BENCH} --version
  OUTPUT_VARIABLE version RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT version MATCHES "cache-salt: ([^\n]+)")
  message(FATAL_ERROR "cannot read the cache salt from ${BENCH} --version")
endif()
set(salt "${CMAKE_MATCH_1}")

if(DEFINED EXPERIMENTS)
  separate_arguments(names UNIX_COMMAND "${EXPERIMENTS}")
else()
  execute_process(COMMAND ${BENCH} --list
    OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
  string(REGEX MATCHALL "\n  [^ \n]+" names "${listing}")
  if(NOT rc EQUAL 0 OR NOT names)
    message(FATAL_ERROR "cannot list experiments with ${BENCH} --list")
  endif()
endif()

set(now "salt ${salt}\n")
foreach(name IN LISTS names)
  string(STRIP "${name}" name)
  file(REMOVE_RECURSE "${DIR}")
  execute_process(COMMAND ${BENCH} ${name} ${SCALE} --jobs ${JOBS}
      --cache-dir ${DIR}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "penelope_bench ${name} exited ${rc}:\n${err}")
  endif()
  string(MD5 digest "${out}")
  string(APPEND now "${name} ${digest}\n")
  if(JOBS EQUAL 1)
    file(MD5 "${DIR}/results.bin" digest)
    string(APPEND now "${name}.store ${digest}\n")
  endif()
endforeach()
file(REMOVE_RECURSE "${DIR}")

file(READ "${GOLDEN}" recorded)
if(recorded STREQUAL now)
  return()
endif()

message("${GOLDEN} should read:\n${now}")
string(REGEX MATCH "^salt [^\n]+" recorded_salt "${recorded}")
if(recorded_salt STREQUAL "salt ${salt}")
  message(FATAL_ERROR "results changed without a salt bump "
    "(kResultCacheSalt is still '${salt}')")
endif()
message(FATAL_ERROR "golden digests were not recorded under "
  "kResultCacheSalt '${salt}' (the file reads '${recorded_salt}')")
