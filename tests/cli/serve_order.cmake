# `soteria_cli serve` prints one stdout line per input path, in the
# order the paths arrive, failures included. This script trains the
# smallest model, writes a corpus, puts a missing path at line K of the
# path list and checks, over five runs, that line K of stdout is that
# path's error line and every other line is a verdict in id order.
# One more run carries the control lines `!swap <model>` and
# `!swap <missing>` mid-stream: a swap consumes no id and a failed one
# keeps serving, so its stdout must be byte-identical to the first
# run's.
#
#   cmake -DCLI=<soteria_cli> -DWORK_DIR=<scratch dir> -P serve_order.cmake
set(K 20)
set(RUNS 5)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${CLI}" train "${WORK_DIR}/model.bin" 0.001 7
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "train exited with ${rc}")
endif()
execute_process(COMMAND "${CLI}" corpus "${WORK_DIR}/corpus" 0.01 13
                RESULT_VARIABLE rc OUTPUT_VARIABLE corpus ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "corpus exited with ${rc}")
endif()
string(STRIP "${corpus}" corpus)
string(REPLACE "\n" ";" paths "${corpus}")
list(LENGTH paths count)
if(count LESS K)
  message(FATAL_ERROR "corpus has ${count} paths, fewer than ${K}")
endif()

set(missing "${WORK_DIR}/missing.bin")
math(EXPR index "${K} - 1")
list(INSERT paths ${index} "${missing}")
list(JOIN paths "\n" input)
file(WRITE "${WORK_DIR}/paths.txt" "${input}\n")

foreach(run RANGE 1 ${RUNS})
  execute_process(COMMAND "${CLI}" serve "${WORK_DIR}/model.bin"
                  INPUT_FILE "${WORK_DIR}/paths.txt"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${run}: serve exited with ${rc}")
  endif()
  string(STRIP "${out}" out)
  string(REPLACE "\n" ";" lines "${out}")
  set(line_number 0)
  set(id 0)
  foreach(line IN LISTS lines)
    math(EXPR line_number "${line_number} + 1")
    if(line_number EQUAL K)
      set(want "{\"path\":\"${missing}\",\"error\":\"IoError\",")
    else()
      set(want "{\"id\":${id},\"path\":")
      math(EXPR id "${id} + 1")
    endif()
    string(FIND "${line}" "${want}" at)
    if(NOT at EQUAL 0)
      message(FATAL_ERROR "run ${run}: stdout line ${line_number} is\n"
                          "  ${line}\nwant it to start with\n  ${want}")
    endif()
  endforeach()
  math(EXPR want_lines "${count} + 1")
  if(NOT line_number EQUAL want_lines)
    message(FATAL_ERROR "run ${run}: ${line_number} stdout lines, want "
                        "${want_lines}")
  endif()
  if(run EQUAL 1)
    set(plain "${out}")
  endif()
endforeach()

list(INSERT paths 25 "!swap ${missing}")
list(INSERT paths 10 "!swap ${WORK_DIR}/model.bin")
list(JOIN paths "\n" input)
file(WRITE "${WORK_DIR}/swaps.txt" "${input}\n")
execute_process(COMMAND "${CLI}" serve "${WORK_DIR}/model.bin"
                INPUT_FILE "${WORK_DIR}/swaps.txt"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "swap run: serve exited with ${rc}\n${err}")
endif()
string(STRIP "${out}" out)
if(NOT out STREQUAL plain)
  message(FATAL_ERROR "swap run: stdout differs from the plain run:\n"
                      "${out}\nwant\n${plain}")
endif()
foreach(want "model swapped from ${WORK_DIR}/model.bin" "swap failed: ")
  string(FIND "${err}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "swap run: stderr lacks \"${want}\":\n${err}")
  endif()
endforeach()
