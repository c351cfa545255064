# A cold `c2b dse` against a fresh C2B_SIM_CACHE_DIR exits while the disk
# tier's flusher may still be draining its last writes into the telemetry
# registry. The registry must outlive the cache: when it did not, cold runs
# under load (such as six at once) aborted at exit with heap corruption
# more often than not. Five rounds of six concurrent cold runs, each on
# its own fresh directory, make that regression all but certain to show.
# Needs a POSIX sh. Invoked by ctest with -DC2B_BIN=<c2b> -DWORK_DIR=<scratch dir>.

set(runs 1 2 3 4 5 6)
set(dse dse --workload stencil --pareto --power-budget 4.0 --instructions 4000
    --per-core-cap 2000)
foreach(round RANGE 1 5)
  set(commands)
  foreach(run IN LISTS runs)
    set(dir "${WORK_DIR}/cold_exit_cache_${run}")
    file(REMOVE_RECURSE "${dir}")
    # Each run's stdout goes to /dev/null, not down the pipeline: a run
    # that finished first would otherwise close the pipe on the next one.
    list(APPEND commands COMMAND "${CMAKE_COMMAND}" -E env "C2B_SIM_CACHE_DIR=${dir}"
         sh -c "\"$0\" \"$@\" > /dev/null" "${C2B_BIN}" ${dse})
  endforeach()
  # One execute_process with several COMMANDs runs them concurrently.
  execute_process(${commands} RESULTS_VARIABLE results OUTPUT_QUIET ERROR_VARIABLE err)
  foreach(rc IN LISTS results)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "round ${round}: a cold run against a fresh cache dir failed "
                          "(results: ${results}):\n${err}")
    endif()
  endforeach()
endforeach()
foreach(run IN LISTS runs)
  file(REMOVE_RECURSE "${WORK_DIR}/cold_exit_cache_${run}")
endforeach()
message(STATUS "cold disk-cache exit OK")
