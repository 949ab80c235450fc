# Smoke test for every run_sweep axis flag, run as a CTest driver:
#
#   cmake -DRUN_SWEEP=<run_sweep-binary> -DDIFF=<aero_diff-binary>
#         -DOUT=<scratch directory> -P run_sweep_axes.cmake
#
# Runs a two-point sweep that sets every axis flag (the GC-policy axis
# sweeps two values, the others one) and writes the JSON and CSV
# reports; aero_diff must then find the JSON report identical to
# itself, i.e. every row has a distinct key over all sweep columns.

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

execute_process(
    COMMAND "${RUN_SWEEP}"
        --workloads prxy
        --schemes AERO
        --pecs 500
        --suspensions on
        --misprediction-rates 0.05
        --rber-requirements 63
        --gc-policies greedy,fifo-log
        --wear-levels dynamic
        --slo-policies throttle
        --seeds 7
        --requests 2000
        --json "${OUT}/axes.json"
        --csv "${OUT}/axes.csv"
    RESULT_VARIABLE sweep_rc
    OUTPUT_QUIET)
if(NOT sweep_rc EQUAL 0)
    message(FATAL_ERROR "run_sweep failed (exit ${sweep_rc})")
endif()

execute_process(
    COMMAND "${DIFF}" "${OUT}/axes.json" "${OUT}/axes.json"
    RESULT_VARIABLE diff_rc
    ECHO_OUTPUT_VARIABLE
    OUTPUT_VARIABLE diff_out)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "aero_diff of axes.json against itself exited ${diff_rc}")
endif()
