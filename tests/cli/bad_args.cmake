# Every `soteria_cli` command rejects an argument it cannot use: an
# unknown command or flag, a flag without its value, an extra
# positional token or a malformed number exits 2 with the usage text on
# stderr, before any model is loaded or any file is written. The
# feature store is not part of the CLI: `store`, and `--store` on
# `analyze` and `serve`, are rejected the same way and create no store
# directory. Neither is `serve --swap-model`: the in-band `!swap <path>`
# line is the one hot-swap trigger.
#
#   cmake -DCLI=<soteria_cli> -DWORK_DIR=<scratch dir> -P bad_args.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(model "${WORK_DIR}/model.bin")

# One case per line; arguments are separated by spaces.
set(cases
    "analyze ${model} 7 --stor ${WORK_DIR}/store"
    "analyze ${model} 7x"
    "analyze ${model} 7 8"
    "analyze ${model} --threads 4"
    "analyze ${model} --format"
    "attack ${model} 7 --data-scale 0.0.1"
    "attack ${model} 7 --data-seed -1"
    "attack ${model} --parms target=benign"
    "eval-matrix ${model} --threads four"
    "eval-matrix ${model} --victims 6x"
    "eval-matrix ${model} --data-scale nan"
    "serve ${model} --threads abc"
    "serve ${model} --queue-depth 10k"
    "serve ${model} --bogus 1"
    "serve ${model} --batch"
    "train ${model} 0.01x"
    "train ${model} 0.01 7 9"
    "corpus ${WORK_DIR}/corpus 0.01 seven"
    "store stats ${WORK_DIR}/store"
    "analyze ${model} --store ${WORK_DIR}/store"
    "serve ${model} --store ${WORK_DIR}/store"
    "serve ${model} --swap-model ${model}")

foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND "${CLI}" ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  INPUT_FILE /dev/null)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "soteria_cli ${case}\nexited with ${rc}, want 2\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  string(FIND "${err}" "usage: soteria_cli" at)
  if(NOT at EQUAL 0)
    message(FATAL_ERROR "soteria_cli ${case}\nstderr does not start with "
                        "the usage text:\n${err}")
  endif()
endforeach()

foreach(path "${model}" "${WORK_DIR}/corpus" "${WORK_DIR}/store")
  if(EXISTS "${path}")
    message(FATAL_ERROR "a rejected command wrote ${path}")
  endif()
endforeach()
