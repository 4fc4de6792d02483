# Re-runs the world configuration recorded in BENCH_world.json on one
# sequential shard and fails unless the code's world digest equals every
# digest the committed file records, so the bench cannot drift from the
# code.
#
#   cmake -DCLI=<path to athena_cli> -DBENCH=<path to BENCH_world.json> \
#         -P bench/check_bench_world_digest.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT CLI OR NOT BENCH)
  message(FATAL_ERROR "usage: cmake -DCLI=<athena_cli> -DBENCH=<BENCH_world.json> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(READ "${BENCH}" bench)
foreach(key ues cells virtual_ms handover_every seed)
  string(JSON ${key} GET "${bench}" config ${key})
endforeach()
math(EXPR seconds "${virtual_ms} / 1000")
math(EXPR whole_ms "${seconds} * 1000")
if(NOT whole_ms EQUAL virtual_ms)
  message(FATAL_ERROR "${BENCH}: virtual_ms ${virtual_ms} is not whole seconds (the CLI takes --duration in s)")
endif()

# Hex digests compare without leading zeros: the bench pads to 16 digits,
# the CLI prints the bare number.
string(JSON runs LENGTH "${bench}" runs)
if(runs EQUAL 0)
  message(FATAL_ERROR "${BENCH}: no runs recorded")
endif()
math(EXPR last "${runs} - 1")
set(committed "")
foreach(i RANGE ${last})
  string(JSON digest GET "${bench}" runs ${i} digest)
  string(REGEX REPLACE "^0+" "" digest "${digest}")
  list(APPEND committed "${digest}")
endforeach()
list(REMOVE_DUPLICATES committed)
list(LENGTH committed distinct)
if(NOT distinct EQUAL 1)
  message(FATAL_ERROR "${BENCH}: runs disagree on the digest: ${committed}")
endif()

execute_process(
  COMMAND "${CLI}" --seed=${seed} --world-ues=${ues} --world-cells=${cells}
          --world-shards=1 --world-mode=seq --world-handover=${handover_every}
          --duration=${seconds}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "athena_cli exited ${rc}:\n${out}")
endif()
if(NOT out MATCHES "  digest: ([0-9a-f]+)")
  message(FATAL_ERROR "no world digest in athena_cli output:\n${out}")
endif()
string(REGEX REPLACE "^0+" "" produced "${CMAKE_MATCH_1}")

if(NOT produced STREQUAL committed)
  message(FATAL_ERROR "BENCH_world digest drift: code produces ${produced}, "
                      "${BENCH} records ${committed}; regenerate it with bench/run_bench_world.sh")
endif()
message(STATUS "BENCH_world digest pinned: ${produced}")
