# Smoke test for the surrogate-guided sweep: `c2b dse --surrogate` writes a
# journal, the stdout summary carries the surrogate block, and `c2b report`
# replays the journal into a post-mortem with the `== surrogate ==` section.
# Invoked by ctest with -DC2B_BIN=<c2b> -DWORK_DIR=<scratch dir>.

set(journal "${WORK_DIR}/surrogate_journal.jsonl")
file(REMOVE "${journal}")

execute_process(
  COMMAND "${C2B_BIN}" dse --workload stencil --surrogate --journal-out "${journal}"
          --progress=0
  RESULT_VARIABLE dse_rc
  OUTPUT_VARIABLE dse_out
  ERROR_VARIABLE dse_err)
if(NOT dse_rc EQUAL 0)
  message(FATAL_ERROR "c2b dse --surrogate failed (${dse_rc}):\n${dse_out}\n${dse_err}")
endif()
foreach(needle "surrogate" "fits_trained" "fits_cached" "fit_drops")
  string(FIND "${dse_out}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "dse output missing '${needle}' in the surrogate summary:\n${dse_out}")
  endif()
endforeach()
if(NOT EXISTS "${journal}")
  message(FATAL_ERROR "journal file was not written: ${journal}")
endif()

execute_process(
  COMMAND "${C2B_BIN}" report --journal "${journal}"
  RESULT_VARIABLE report_rc
  OUTPUT_VARIABLE report_out
  ERROR_VARIABLE report_err)
if(NOT report_rc EQUAL 0)
  message(FATAL_ERROR "c2b report failed (${report_rc}):\n${report_out}\n${report_err}")
endif()

foreach(needle
    "== run =="
    "== surrogate =="
    "fits_trained"
    "fits_cached"
    "fit_drops")
  string(FIND "${report_out}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "report output missing '${needle}':\n${report_out}")
  endif()
endforeach()

# The exhaustive path must NOT print surrogate stats: re-run without the
# flag and make sure the block stays absent (the pruner defaults off).
execute_process(
  COMMAND "${C2B_BIN}" dse --workload stencil --progress=0
  RESULT_VARIABLE off_rc
  OUTPUT_VARIABLE off_out
  ERROR_VARIABLE off_err)
if(NOT off_rc EQUAL 0)
  message(FATAL_ERROR "plain c2b dse failed (${off_rc}):\n${off_out}\n${off_err}")
endif()
string(FIND "${off_out}" "surrogate" found)
if(NOT found EQUAL -1)
  message(FATAL_ERROR "plain run printed surrogate stats:\n${off_out}")
endif()

message(STATUS "surrogate smoke OK")
