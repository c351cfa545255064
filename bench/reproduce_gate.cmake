# Runs `reproduce` in an empty WORK_DIR and compares the bench_out/ it writes
# with COMMITTED_DIR byte for byte, both ways: every written file must be
# committed and equal, and every committed file must be written.
# Invoked by ctest with -DREPRODUCE=<binary> -DWORK_DIR=<scratch dir>
# -DCOMMITTED_DIR=<source>/bench_out.
#
# Scope: Fig. 12's ANN row trains an MLP through std::tanh, whose glibc
# implementation is picked by CPU features, so fig12_dse.csv is bitwise
# reproducible per host libm dispatch, not across FMA and non-FMA machines
# (DESIGN.md, "Surrogate-guided DSE"). It stays gated.

cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${REPRODUCE}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reproduce failed (${rc}); stdout in ${WORK_DIR}/stdout.txt\n${err}")
endif()

file(GLOB generated RELATIVE "${WORK_DIR}/bench_out" "${WORK_DIR}/bench_out/*")
file(GLOB committed RELATIVE "${COMMITTED_DIR}" "${COMMITTED_DIR}/*")
list(SORT generated)
list(SORT committed)

set(failures "")
foreach(name IN LISTS committed)
  if(NOT name IN_LIST generated)
    string(APPEND failures "  committed but not generated: ${name}\n")
  endif()
endforeach()
foreach(name IN LISTS generated)
  if(NOT name IN_LIST committed)
    string(APPEND failures "  generated but not committed: ${name}\n")
    continue()
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/bench_out/${name}" "${COMMITTED_DIR}/${name}"
    RESULT_VARIABLE differs
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT differs EQUAL 0)
    # Name the first line that differs so the log shows what moved.
    file(STRINGS "${WORK_DIR}/bench_out/${name}" new_lines)
    file(STRINGS "${COMMITTED_DIR}/${name}" old_lines)
    list(LENGTH new_lines new_count)
    list(LENGTH old_lines old_count)
    set(line 0)
    while(line LESS new_count AND line LESS old_count)
      list(GET new_lines ${line} new_line)
      list(GET old_lines ${line} old_line)
      if(NOT new_line STREQUAL old_line)
        break()
      endif()
      math(EXPR line "${line} + 1")
    endwhile()
    set(new_line "<end of file>")
    set(old_line "<end of file>")
    if(line LESS new_count)
      list(GET new_lines ${line} new_line)
    endif()
    if(line LESS old_count)
      list(GET old_lines ${line} old_line)
    endif()
    math(EXPR line_no "${line} + 1")
    string(APPEND failures "  differs: ${name}, line ${line_no}\n"
                           "    committed: ${old_line}\n"
                           "    generated: ${new_line}\n")
  endif()
endforeach()

if(failures)
  message(FATAL_ERROR
    "reproduce output does not match ${COMMITTED_DIR}:\n${failures}"
    "Re-record on purpose by running reproduce from the repository root.")
endif()
list(LENGTH committed count)
message(STATUS "reproduce: ${count} files match ${COMMITTED_DIR}")
