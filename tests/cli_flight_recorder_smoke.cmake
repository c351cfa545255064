# Smoke test for the flight recorder: a seeded DSE sweep writes a journal,
# `c2b report` replays it into a post-mortem, and the heatmap CSV exists.
# Invoked by ctest with -DC2B_BIN=<c2b> -DWORK_DIR=<scratch dir>.

set(journal "${WORK_DIR}/smoke_journal.jsonl")
set(heatmap "${WORK_DIR}/smoke_heatmap.csv")
file(REMOVE "${journal}" "${heatmap}")

# Blank C2B_SIM_CACHE_DIR: a disk tier warmed by an earlier run would
# serve the whole sweep, and a fully-cached run legitimately journals no
# per-class events — this smoke needs the cold-path sections to exist.
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "C2B_SIM_CACHE_DIR="
          "${C2B_BIN}" dse --workload stencil --journal-out "${journal}" --progress=0
  RESULT_VARIABLE dse_rc
  OUTPUT_VARIABLE dse_out
  ERROR_VARIABLE dse_err)
if(NOT dse_rc EQUAL 0)
  message(FATAL_ERROR "c2b dse failed (${dse_rc}):\n${dse_out}\n${dse_err}")
endif()
if(NOT EXISTS "${journal}")
  message(FATAL_ERROR "journal file was not written: ${journal}")
endif()

execute_process(
  COMMAND "${C2B_BIN}" report --journal "${journal}" --heatmap-out "${heatmap}"
  RESULT_VARIABLE report_rc
  OUTPUT_VARIABLE report_out
  ERROR_VARIABLE report_err)
if(NOT report_rc EQUAL 0)
  message(FATAL_ERROR "c2b report failed (${report_rc}):\n${report_out}\n${report_err}")
endif()

foreach(needle
    "== run =="
    "== phase time breakdown =="
    "== cache/batch effectiveness =="
    "== per-unit sim time =="
    "replay balance per batched call:"
    "== explored space ==")
  string(FIND "${report_out}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "report output missing '${needle}':\n${report_out}")
  endif()
endforeach()

if(NOT EXISTS "${heatmap}")
  message(FATAL_ERROR "heatmap CSV was not written: ${heatmap}")
endif()
file(READ "${heatmap}" heatmap_text)
string(FIND "${heatmap_text}" "n_cores," found)
if(found EQUAL -1)
  message(FATAL_ERROR "heatmap CSV malformed:\n${heatmap_text}")
endif()

message(STATUS "flight recorder smoke OK")
