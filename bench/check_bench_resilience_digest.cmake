# Re-runs the soak configuration recorded in BENCH_resilience.json (seed,
# virtual length, input byte budget) and fails unless the session's final
# state digest equals the file's `final_digest`, so the soak bench cannot
# drift from the code.
#
#   cmake -DCLI=<path to athena_cli> -DBENCH=<path to BENCH_resilience.json> \
#         -P bench/check_bench_resilience_digest.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT CLI OR NOT BENCH)
  message(FATAL_ERROR "usage: cmake -DCLI=<athena_cli> -DBENCH=<BENCH_resilience.json> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(READ "${BENCH}" bench)
foreach(key seed virtual_seconds input_budget_bytes final_digest)
  string(JSON ${key} GET "${bench}" ${key})
endforeach()

# Checkpoints never perturb a run, so the soak's cadence is left out: the
# uninterrupted digest is the one the bench records.
execute_process(
  COMMAND "${CLI}" --seed=${seed} --duration=${virtual_seconds}
          --mem-budget=${input_budget_bytes}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "athena_cli exited ${rc}:\n${out}")
endif()
if(NOT out MATCHES "final state digest: ([0-9a-f]+)")
  message(FATAL_ERROR "no final state digest in athena_cli output:\n${out}")
endif()

# Hex digests compare without leading zeros: the bench pads to 16 digits,
# the CLI prints the bare number.
string(REGEX REPLACE "^0+" "" produced "${CMAKE_MATCH_1}")
string(REGEX REPLACE "^0+" "" committed "${final_digest}")
if(NOT produced STREQUAL committed)
  message(FATAL_ERROR "BENCH_resilience digest drift: code produces ${produced}, "
                      "${BENCH} records ${committed}; regenerate it with bench/run_soak.sh")
endif()
message(STATUS "BENCH_resilience digest pinned: ${produced}")
