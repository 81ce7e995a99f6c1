# Runs EXE with the space-separated ARGS and passes iff it exits with
# EXIT_CODE and its output matches REGEX. ctest's own PASS_REGULAR_EXPRESSION
# ignores the exit code, and WILL_FAIL accepts any failure, a crash included.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL EXIT_CODE)
  message(FATAL_ERROR "exit ${code}, expected ${EXIT_CODE}:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}':\n${out}${err}")
endif()
