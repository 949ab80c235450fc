# Kill-and-resume crash harness, run as a CTest driver:
#
#   cmake -DBENCH=<bench-binary> -DDIFF=<aero_diff-binary>
#         -DWORK=<scratch dir> -DTHREADS=<n> [-DMAX_KILLS=<n>]
#         [-DEXTRA_ARGS=<extra bench flags>]
#         -P run_crash_resume.cmake
#
# -DEXTRA_ARGS passes extra flags (space-separated) to every bench
# invocation — clean run, kill loop, and final resume alike — so a
# non-default configuration (e.g. `--slo noisy`) gets the same
# crash/resume treatment as the default campaign.
#
# Procedure (the checkpoint contract, end to end on the real binary):
#   1. Run `<bench> --small` uninterrupted -> clean.json / clean.csv.
#   2. Repeatedly start the same bench with `--checkpoint ck.dir` and
#      SIGKILL it at a randomized point (growing, jittered timeouts), so
#      successive attempts die at different stages of the campaign and
#      each restart must resume from the journal the previous victim
#      left behind — torn tails included. Each attempt also runs under a
#      *random* AERO_SWEEP_THREADS (1-4), so resumes cross thread
#      counts: the journal is axis-keyed, not position-keyed, and this
#      is where that claim is exercised. The loop ends when an attempt
#      survives to completion (a final untimed run guarantees that).
#   3. Require the resumed artifacts to be *byte-identical* to the clean
#      run's (cmake -E compare_files), and `aero_diff` to agree.
#
# `timeout --signal=KILL` delivers a true SIGKILL where coreutils is
# available (Linux CI and dev boxes); elsewhere the harness falls back
# to execute_process(TIMEOUT), whose kill is equally abrupt for a
# process that installs no handlers.

foreach(required BENCH DIFF WORK THREADS)
    if(NOT DEFINED ${required})
        message(FATAL_ERROR "run_crash_resume.cmake needs -D${required}=...")
    endif()
endforeach()
if(NOT DEFINED MAX_KILLS)
    set(MAX_KILLS 20)
endif()
set(extra_args)
if(DEFINED EXTRA_ARGS)
    separate_arguments(extra_args UNIX_COMMAND "${EXTRA_ARGS}")
endif()
set(ck_path "${WORK}/ck.dir")

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(ENV{AERO_SWEEP_THREADS} "${THREADS}")

# ---------------------------------------------------------------------------
# 1. Clean, uninterrupted reference run.
# ---------------------------------------------------------------------------
execute_process(
    COMMAND "${BENCH}" --small ${extra_args}
        --json "${WORK}/clean.json" --csv "${WORK}/clean.csv"
    RESULT_VARIABLE clean_rc
    OUTPUT_QUIET)
if(NOT clean_rc EQUAL 0)
    message(FATAL_ERROR "clean run of '${BENCH}' failed (exit ${clean_rc})")
endif()

# ---------------------------------------------------------------------------
# 2. Kill loop: SIGKILL the checkpointed bench at randomized points until
#    one attempt completes. Timeouts start small (die early in the
#    campaign) and grow geometrically with a random jitter, so the kill
#    points spread across the whole run instead of clustering.
# ---------------------------------------------------------------------------
find_program(TIMEOUT_TOOL timeout)

set(kill_ms 120)
set(completed FALSE)
set(kills 0)
foreach(attempt RANGE 1 ${MAX_KILLS})
    # kill_ms plus up to ~50% random jitter, in whole milliseconds.
    # (No zeros in the alphabet: math(EXPR) rejects leading zeros.)
    string(RANDOM LENGTH 3 ALPHABET "123456789" jitter)
    math(EXPR this_ms "${kill_ms} + (${kill_ms} * ${jitter}) / 2000")
    math(EXPR timeout_s "${this_ms} / 1000")
    math(EXPR timeout_frac "${this_ms} % 1000")
    string(LENGTH "${timeout_frac}" frac_len)
    if(frac_len EQUAL 1)
        set(timeout_frac "00${timeout_frac}")
    elseif(frac_len EQUAL 2)
        set(timeout_frac "0${timeout_frac}")
    endif()
    set(budget "${timeout_s}.${timeout_frac}")

    # Resume under a different thread count than the journal was
    # written with (restored to ${THREADS} after the loop).
    string(RANDOM LENGTH 1 ALPHABET "1234" attempt_threads)
    set(ENV{AERO_SWEEP_THREADS} "${attempt_threads}")

    if(TIMEOUT_TOOL)
        execute_process(
            COMMAND "${TIMEOUT_TOOL}" --signal=KILL "${budget}"
                "${BENCH}" --small ${extra_args} --checkpoint "${ck_path}"
                --json "${WORK}/resumed.json" --csv "${WORK}/resumed.csv"
            RESULT_VARIABLE rc
            OUTPUT_QUIET ERROR_QUIET)
    else()
        execute_process(
            COMMAND "${BENCH}" --small ${extra_args}
                --checkpoint "${ck_path}"
                --json "${WORK}/resumed.json" --csv "${WORK}/resumed.csv"
            TIMEOUT "${budget}"
            RESULT_VARIABLE rc
            OUTPUT_QUIET ERROR_QUIET)
    endif()
    if(rc EQUAL 0)
        set(completed TRUE)
        break()
    endif()
    math(EXPR kills "${kills} + 1")
    math(EXPR kill_ms "(${kill_ms} * 14) / 10")
endforeach()

set(ENV{AERO_SWEEP_THREADS} "${THREADS}")
if(NOT completed)
    # Pathologically slow machine: let the final resume run to the end.
    execute_process(
        COMMAND "${BENCH}" --small ${extra_args}
            --checkpoint "${ck_path}"
            --json "${WORK}/resumed.json" --csv "${WORK}/resumed.csv"
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "resumed run of '${BENCH}' failed (exit ${rc})")
    endif()
endif()
message(STATUS "crash harness: ${kills} SIGKILLed attempt(s) before a "
               "run completed")

# ---------------------------------------------------------------------------
# 3. Byte-identity against the clean run, plus the semantic gate.
# ---------------------------------------------------------------------------
foreach(artifact clean.json clean.csv resumed.json resumed.csv)
    if(NOT EXISTS "${WORK}/${artifact}")
        message(FATAL_ERROR "missing artifact ${WORK}/${artifact}")
    endif()
endforeach()

execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
        "${WORK}/clean.json" "${WORK}/resumed.json"
    RESULT_VARIABLE json_cmp)
if(NOT json_cmp EQUAL 0)
    message(FATAL_ERROR
        "resumed JSON artifact is not byte-identical to the clean run "
        "(${WORK}/clean.json vs ${WORK}/resumed.json)")
endif()

execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
        "${WORK}/clean.csv" "${WORK}/resumed.csv"
    RESULT_VARIABLE csv_cmp)
if(NOT csv_cmp EQUAL 0)
    message(FATAL_ERROR
        "resumed CSV artifact is not byte-identical to the clean run "
        "(${WORK}/clean.csv vs ${WORK}/resumed.csv)")
endif()

execute_process(
    COMMAND "${DIFF}" "${WORK}/clean.json" "${WORK}/resumed.json"
    RESULT_VARIABLE diff_rc
    OUTPUT_QUIET)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "aero_diff disagrees with cmp (exit ${diff_rc})")
endif()

message(STATUS "crash harness: resumed artifacts byte-identical to the "
               "clean run at ${THREADS} thread(s)")
