# Runs `dagt <CMD> --<FLAG> <VALUE>` and fails unless dagt exits 2 (a usage
# error) and its message names --<FLAG>. Invoked by the cli.* ctest cases:
#
#   cmake -DDAGT=path/to/dagt -DCMD=train -DFLAG=epochs -DVALUE=nan \
#     -P tools/expect_usage_error.cmake
#
# `gen` gets a design name. Training commands get a tiny design scale and
# one epoch (unless the case is about that flag), so that a regression (the
# command running on) fails in seconds instead of timing out.
set(args ${CMD})
if(CMD STREQUAL "gen")
  list(APPEND args smallboom)
endif()
list(APPEND args --${FLAG} ${VALUE})
if(CMD STREQUAL "train" OR CMD STREQUAL "export")
  if(NOT FLAG STREQUAL "scale")
    list(APPEND args --scale 0.05)
  endif()
  if(NOT FLAG STREQUAL "epochs")
    list(APPEND args --epochs 1)
  endif()
endif()
if(CMD STREQUAL "export")
  list(APPEND args --out cli_bundle)
endif()
execute_process(COMMAND ${DAGT} ${args}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "dagt ${args}: exit ${rc}, want 2\n${err}")
endif()
string(FIND "${err}" "flag --${FLAG} " named)
if(named EQUAL -1)
  message(FATAL_ERROR "dagt ${args}: message does not name --${FLAG}\n${err}")
endif()
