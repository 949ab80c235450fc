# Bad-flag gate, run as a CTest driver:
#
#   cmake -DBIN=<binary> "-DARGS=<flags>" -DEXPECT=<regex> -DWORK=<dir>
#         [-DNO_JOURNAL=<journal dir>] -P run_cli_reject.cmake
#
# Runs `<binary> <flags>` (space-separated; `%WORK%` expands to WORK, a
# fresh scratch directory) from inside WORK and requires a user error:
# exit status 1 with EXPECT matched in stderr. With NO_JOURNAL, the run
# must also have left no journal record under that directory — the
# rejection came before any campaign work.

foreach(required BIN ARGS EXPECT WORK)
    if(NOT DEFINED ${required})
        message(FATAL_ERROR "run_cli_reject.cmake needs -D${required}=...")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
string(REPLACE "%WORK%" "${WORK}" args "${ARGS}")
separate_arguments(args UNIX_COMMAND "${args}")

execute_process(
    COMMAND "${BIN}" ${args}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
        "expected exit 1 from '${BIN} ${args}', got '${rc}':\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "stderr of '${BIN} ${args}' does not match '${EXPECT}':\n${err}")
endif()

if(DEFINED NO_JOURNAL)
    string(REPLACE "%WORK%" "${WORK}" journal "${NO_JOURNAL}")
    file(GLOB journal_files "${journal}/journal.*.jsonl")
    foreach(jf IN LISTS journal_files)
        file(STRINGS "${jf}" records REGEX "\"key\"")
        list(LENGTH records n)
        if(n GREATER 0)
            message(FATAL_ERROR
                "rejected run still journaled ${n} record(s) in ${jf}")
        endif()
    endforeach()
endif()
message(STATUS "rejected as expected: ${err}")
