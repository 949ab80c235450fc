# One regression-gate check, run as a CTest driver:
#
#   cmake -DBENCH=<bench-binary> -DDIFF=<aero_diff-binary>
#         -DGOLDEN=<checked-in baseline> -DOUT=<scratch artifact>
#         -DREGEN=<target that refreshes the baseline>
#         [-DREL_TOL=<tol>] [-DARGS=<extra bench flags>]
#         [-DIGNORE=<key;key>] -P run_gate.cmake
#
# Regenerates the bench's --small artifact and diffs it against the
# checked-in baseline; any metric drifting beyond tolerance fails the
# test with aero_diff's per-metric delta table in the output. -DARGS
# passes extra flags (space-separated) to the bench, for baselines that
# pin a non-default configuration (e.g. `--slo noisy`). -DIGNORE names
# keys aero_diff skips (one --ignore each), for the perf baselines'
# machine-dependent rates. Every golden.* and perf.bench_* test in the
# top-level CMakeLists.txt runs this script.

foreach(required BENCH DIFF GOLDEN OUT REGEN)
    if(NOT DEFINED ${required})
        message(FATAL_ERROR "run_gate.cmake needs -D${required}=...")
    endif()
endforeach()

if(NOT DEFINED REL_TOL)
    # Zero would do in a fixed toolchain; the default absorbs last-ulp
    # libm differences in *floating-point* metrics across compilers
    # while still catching real drift. Integer metrics always compare
    # exactly — if a toolchain change flips a count, regenerate the
    # baseline and review the delta.
    set(REL_TOL 1e-6)
endif()

set(extra_args)
if(DEFINED ARGS)
    separate_arguments(extra_args UNIX_COMMAND "${ARGS}")
endif()

set(ignore_args)
foreach(key IN LISTS IGNORE)
    list(APPEND ignore_args --ignore "${key}")
endforeach()

execute_process(
    COMMAND "${BENCH}" --small ${extra_args} --json "${OUT}"
    RESULT_VARIABLE bench_rc
    OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR "bench '${BENCH}' failed (exit ${bench_rc})")
endif()

execute_process(
    COMMAND "${DIFF}" "${GOLDEN}" "${OUT}" --rel-tol "${REL_TOL}"
        ${ignore_args}
    RESULT_VARIABLE diff_rc
    OUTPUT_VARIABLE diff_out
    ECHO_OUTPUT_VARIABLE)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "regenerated artifact drifted from ${GOLDEN} "
        "(aero_diff exit ${diff_rc}); if the change is intentional, "
        "rebuild the baseline with the '${REGEN}' target")
endif()
