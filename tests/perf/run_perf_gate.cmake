# The simulation-kernel perf gate, run as a CTest driver:
#
#   cmake -DBENCH=<bench_kernel-binary> -DDIFF=<aero_diff-binary>
#         -DBASELINE=<checked-in BENCH_kernel.json> -DOUT=<scratch json>
#         [-DREL_TOL=<tol>] -P run_perf_gate.cmake
#
# Regenerates the --small kernel-bench artifact and diffs it against the
# checked-in baseline. What is gated, and how, differs from the golden
# gate because perf numbers are machine-dependent:
#
#   * deterministic counts (events_total, final_tick, loops_total, ...)
#     compare exactly — any drift means the kernel changed behaviour;
#   * machine-absolute rates (mevents_per_sec, requests_per_sec,
#     ns_per_erase_step) are recorded for trajectory plots but ignored
#     by the diff. Speed is compared end to end, change against parent
#     on one machine, by the perfbench/ harness instead.
#
# To refresh the baseline after an intentional change:
#   cmake --build build --target regen-perf-baseline

if(NOT DEFINED REL_TOL)
    # Only reaches deterministic floats (events_per_request); everything
    # noisy is ignored.
    set(REL_TOL 1e-6)
endif()

execute_process(
    COMMAND "${BENCH}" --small --json "${OUT}"
    RESULT_VARIABLE bench_rc
    OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR "bench '${BENCH}' failed (exit ${bench_rc})")
endif()

execute_process(
    COMMAND "${DIFF}" "${BASELINE}" "${OUT}" --rel-tol "${REL_TOL}"
        --ignore mevents_per_sec
        --ignore requests_per_sec
        --ignore ns_per_erase_step
    RESULT_VARIABLE diff_rc
    OUTPUT_VARIABLE diff_out
    ECHO_OUTPUT_VARIABLE)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "kernel bench drifted from ${BASELINE} "
        "(aero_diff exit ${diff_rc}); deterministic-count drift means a "
        "behaviour change. If intentional, refresh with the "
        "'regen-perf-baseline' target")
endif()
