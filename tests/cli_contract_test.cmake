# Drives a dfv binary with invalid arguments and asserts they are
# rejected: exit code 2 and a stderr message matching EXPECT. By default
# the rejection must come from the contract machinery (a ContractError);
# with -DPARSER=1 it must come from the argument parser, which prints the
# usage text. With -DABSENT=<path>, the rejection must come before the
# binary creates that path (e.g. a campaign cache it would generate).
# Usage:
#   cmake -DDFV_BIN=<path> -DARGS="<args>" -DEXPECT="<regex>" [-DPARSER=1]
#         [-DABSENT=<path>] -P cli_contract_test.cmake
separate_arguments(args_list UNIX_COMMAND "${ARGS}")
if(ABSENT)
  file(REMOVE_RECURSE "${ABSENT}")
endif()
execute_process(
  COMMAND "${DFV_BIN}" ${args_list}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${DFV_BIN} ${ARGS}: expected exit code 2, got '${rc}'\nstderr: ${err}")
endif()
if(PARSER)
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "${DFV_BIN} ${ARGS}: stderr lacks the usage text:\n${err}")
  endif()
elseif(NOT err MATCHES "error: contract violation")
  message(FATAL_ERROR "${DFV_BIN} ${ARGS}: stderr lacks a contract violation:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${DFV_BIN} ${ARGS}: stderr does not match '${EXPECT}':\n${err}")
endif()
if(ABSENT AND EXISTS "${ABSENT}")
  message(FATAL_ERROR "${DFV_BIN} ${ARGS}: created ${ABSENT} before rejecting the arguments")
endif()
