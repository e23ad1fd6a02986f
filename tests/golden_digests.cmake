# Golden digests: the md5 of each experiment's stdout at CI scale,
# compared with the digests recorded in tests/golden/digests.txt.
#
#   cmake -DBENCH=<penelope_bench> -DGOLDEN=<digests.txt> \
#         -P tests/golden_digests.cmake
#
# The golden file records the kResultCacheSalt it was made under.
# Printed results may only change together with a salt bump: a digest
# that moves while the salt stays put fails with "results changed
# without a salt bump".  Either way a mismatch prints the lines the
# golden file should hold now (reproducible by hand with
# `penelope_bench <name> --stride 32 --uops 8000 | md5sum`).

set(scale --stride 32 --uops 8000 --jobs 1)

execute_process(COMMAND ${BENCH} --version
  OUTPUT_VARIABLE version RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT version MATCHES "cache-salt: ([^\n]+)")
  message(FATAL_ERROR "cannot read the cache salt from ${BENCH} --version")
endif()
set(salt "${CMAKE_MATCH_1}")

execute_process(COMMAND ${BENCH} --list
  OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
string(REGEX MATCHALL "\n  [^ \n]+" names "${listing}")
if(NOT rc EQUAL 0 OR NOT names)
  message(FATAL_ERROR "cannot list experiments with ${BENCH} --list")
endif()

set(now "salt ${salt}\n")
foreach(name IN LISTS names)
  string(STRIP "${name}" name)
  execute_process(COMMAND ${BENCH} ${name} ${scale}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "penelope_bench ${name} exited ${rc}:\n${err}")
  endif()
  string(MD5 digest "${out}")
  string(APPEND now "${name} ${digest}\n")
endforeach()

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
