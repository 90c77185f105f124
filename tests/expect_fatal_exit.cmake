# Runs a command that must refuse its configuration and checks how it
# ends: exit status 1 and a "fatal:" diagnostic line on stderr. An
# uncaught exception aborts instead, which execute_process reports as
# a signal string, never as 1.
#
#   cmake -DEXE=<program> "-DARGS=<arg> <arg>..." -P expect_fatal_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
    message(FATAL_ERROR "expected exit status 1, got '${status}'\n${err}")
endif()
if(NOT err MATCHES "(^|\n)fatal: ")
    message(FATAL_ERROR "no 'fatal:' line on stderr:\n${err}")
endif()
