# Re-runs the chaos matrices recorded in BENCH_chaos.json and
# BENCH_mitigation.json (each file's base_seed and seeds over the whole
# catalog) and fails unless every outcome's scenario, seed and digest —
# for mitigation pairs the ledger_digest — equal what the committed file
# records, outcome by outcome, so the benches cannot drift from the code.
#
#   cmake -DCLI=<path to athena_cli> -DCHAOS=<BENCH_chaos.json> \
#         -DMITIGATION=<BENCH_mitigation.json> -DWORK_DIR=<scratch dir> \
#         -P bench/check_bench_chaos_digest.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT CLI OR NOT CHAOS OR NOT MITIGATION OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<athena_cli> -DCHAOS=<BENCH_chaos.json> "
                      "-DMITIGATION=<BENCH_mitigation.json> -DWORK_DIR=<dir> "
                      "-P ${CMAKE_CURRENT_LIST_FILE}")
endif()

function(check_pinned bench_path digest_key)
  file(READ "${bench_path}" committed)
  string(JSON base_seed GET "${committed}" base_seed)
  string(JSON seeds GET "${committed}" seeds)
  string(JSON kind GET "${committed}" bench)
  set(axis "")
  if(kind STREQUAL "mitigation_matrix")
    set(axis --mitigate)
  endif()

  get_filename_component(name "${bench_path}" NAME_WE)
  set(rerun "${WORK_DIR}/${name}.rerun.json")
  execute_process(
    COMMAND "${CLI}" --chaos=all --chaos-seeds=${seeds} --seed=${base_seed}
            --jobs=2 ${axis} --chaos-out=${rerun}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "athena_cli exited ${rc}:\n${out}")
  endif()
  file(READ "${rerun}" produced)

  string(JSON want_runs LENGTH "${committed}" outcomes)
  string(JSON got_runs LENGTH "${produced}" outcomes)
  if(NOT want_runs EQUAL got_runs)
    message(FATAL_ERROR "${name} drift: ${bench_path} records ${want_runs} outcomes, "
                        "the code produces ${got_runs}; regenerate it with "
                        "bench/run_chaos_matrix.sh")
  endif()
  math(EXPR last "${want_runs} - 1")
  foreach(i RANGE ${last})
    foreach(key scenario seed ${digest_key})
      string(JSON want GET "${committed}" outcomes ${i} ${key})
      string(JSON got GET "${produced}" outcomes ${i} ${key})
      if(NOT want STREQUAL got)
        message(FATAL_ERROR "${name} drift at outcome ${i}: ${key} is ${got}, "
                            "${bench_path} records ${want}; regenerate it with "
                            "bench/run_chaos_matrix.sh")
      endif()
    endforeach()
  endforeach()
  message(STATUS "${name}: ${want_runs} ${digest_key}s pinned")
endfunction()

check_pinned("${CHAOS}" digest)
check_pinned("${MITIGATION}" ledger_digest)
