#!/usr/bin/env python3
"""End-to-end benchmark of the AERO SSD simulator.

    python3 perfbench/run.py --workload <fig14-grid|gc-churn|paper-drive>
                             --seed <n> --seconds <s> --trace <0|1>

BENCHMARK.json lists fig14-grid and gc-churn; paper-drive runs the same
way but is left out of it (NOTES.md says why).

Run from the root of a source checkout. It builds the simulator library
and the harness (perfbench/perfbench.cpp) from source into .bench_build/,
runs the workload, checks every simulated point, prints each metric by
name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, their
times scaled to a nominal host speed by a reference batch of work timed
around every point (NOTES.md, "Host-speed reference"); with
--trace 1 they are its per_layer list, and the spans go to
.bench_build/perfbench-traces/. `attempted` counts simulated points run,
`failed` those that aborted or failed the output check.

Checks: at the pinned seed (pins.json) every point's erases, erase loops,
suspensions, GC-migrated pages, events, final tick, read p99.99 and WA
must equal the recorded values; at any seed, reads + writes must equal the
trace's records, the queue must drain, WA must be >= 1, and every pass
must reproduce the first pass's numbers. `--record-pins` rewrites the
pins of one workload from a run at the pinned seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
BINARY = os.path.join(BUILD, "aero_perfbench")
PINS = os.path.join(HERE, "pins.json")
RUN_LIMIT_S = 170
# Host seconds of one reference batch (perfbench.cpp, referenceOnceS) on a
# quiet host of the kind NOTES.md describes. End-to-end times are scaled
# to a host that runs the reference in exactly this long.
REFERENCE_S = 0.042

PINNED = ("erases", "erase_loops", "suspensions", "gc_migrated_pages",
          "events", "final_tick", "read_p9999_ticks", "wa")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail_setup(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build():
    """Configure once, then bring the harness up to date."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "aero_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            fail_setup("build failed: " + " ".join(cmd))


def run_harness(args, trace_out):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
        out, code = done.stdout, done.returncode
    except subprocess.TimeoutExpired as exc:
        out, code = exc.stdout or "", "timeout"
        if isinstance(out, bytes):
            out = out.decode()
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            pass
    return records, code


def scaled(rec, key):
    """One point's `key` time at the nominal host speed: the setup by the
    reference timed around the setup, the rest by the one around the rest."""
    before = REFERENCE_S / ((rec["ref_before_s"] + rec["ref_mid_s"]) / 2)
    after = REFERENCE_S / ((rec["ref_mid_s"] + rec["ref_after_s"]) / 2)
    if key == "setup_s":
        return rec["setup_s"] * before
    if key == "wall_s":
        return (rec["setup_s"] * before
                + (rec["wall_s"] - rec["setup_s"]) * after)
    return rec[key] * after


def load_pins():
    if not os.path.exists(PINS):
        return None
    with open(PINS) as f:
        return json.load(f)


def point_errors(rec, pinned, first):
    """Every failed check of one simulated point, as text."""
    errs = []
    if rec["reads"] + rec["writes"] != rec["records"]:
        errs.append("reads+writes %d != records %d"
                    % (rec["reads"] + rec["writes"], rec["records"]))
    if not rec["drained"]:
        errs.append("queue did not drain")
    if not rec["wa"] >= 1.0:
        errs.append("WA %r < 1" % rec["wa"])
    if pinned is not None:
        for key in PINNED:
            if rec[key] != pinned[key]:
                errs.append("%s %r != pinned %r" % (key, rec[key],
                                                    pinned[key]))
    if first is not None:
        for key in PINNED:
            if rec[key] != first[key]:
                errs.append("%s %r differs from pass 0 (%r)"
                            % (key, rec[key], first[key]))
    return errs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record-pins", action="store_true",
                    help="rewrite this workload's pins from this run")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        fail_setup("cannot read BENCHMARK.json: %s" % exc)
    pins = load_pins()
    if pins is None and not args.record_pins:
        fail_setup("missing " + PINS)
    if args.record_pins and args.trace:
        fail_setup("--record-pins needs --trace 0")

    build()
    trace_out = None
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        trace_out = os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))
    t0 = time.monotonic()
    records, code = run_harness(args, trace_out)
    harness_s = time.monotonic() - t0

    info = next((r for r in records if r["kind"] == "workload"), None)
    if info is None:
        fail_setup("harness printed nothing (exit %s)" % code)
    npoints = info["points"]
    check_pins = (pins is not None and args.seed == pins["seed"]
                  and not args.record_pins)
    pinned = pins["workloads"][args.workload] if check_pins else {}

    points = [r for r in records if r["kind"] == "point"]
    passes = [r for r in records if r["kind"] == "pass"]
    first = {}
    failed = 0
    print("workload %s  seed %d  %d points x %d requests, PEC %g, "
          "conditioning reuse %d/%d"
          % (args.workload, args.seed, npoints, info["requests_per_point"],
             info["pec"], info["conditioning_repeats"], npoints))
    print("%-5s %-16s %8s %7s %8s %10s %11s %13s %12s %9s  %s"
          % ("pass", "point", "erases", "loops", "susp", "gc_pages",
             "events", "final_tick", "p9999_ticks", "WA", "check"))
    for rec in points:
        errs = point_errors(rec, pinned.get(rec["point"]) if check_pins
                            else None, first.get(rec["point"]))
        failed += bool(errs)
        if errs or rec["point"] not in first:
            print("%-5d %-16s %8d %7d %8d %10d %11d %13d %12d %9.4f  %s"
                  % (rec["pass"], rec["point"], rec["erases"],
                     rec["erase_loops"], rec["suspensions"],
                     rec["gc_migrated_pages"], rec["events"],
                     rec["final_tick"], rec["read_p9999_ticks"], rec["wa"],
                     "; ".join(errs) if errs else "ok"))
        first.setdefault(rec["point"], rec)
    print("%d point runs in %d passes; later passes are shown only where "
          "they fail a check" % (len(points), len(passes)))
    # An abort or timeout fails the point it interrupted; a run that
    # never got going fails a whole pass.
    lost = 0
    done = next((r for r in records if r["kind"] == "done"), None)
    if code != 0 or done is None:
        lost = npoints - len(points) % npoints if points else npoints
        log("perfbench: harness ended with %s; %d point(s) lost"
            % (code, lost))
    attempted = len(points) + lost
    failed += lost

    metrics = {}
    if args.trace:
        layers = next((r for r in records if r["kind"] == "layers"), {})
        if not layers.get("warmup_erases_agree", False):
            log("perfbench: standalone Ftl warmup erases disagree with Ssd")
            failed += 1
        for m in spec["per_layer"]:
            if m["name"] in layers:
                metrics[m["name"]] = {"value": layers[m["name"]],
                                      "unit": m["unit"]}
        extra = {k: v for k, v in layers.items()
                 if k != "kind" and k not in metrics}
        print("probe counts and checks: " + json.dumps(extra))
        print("spans: " + os.path.relpath(trace_out, ROOT))
    else:
        for name in ("setup_s", "wall_s", "replay_s"):
            print("%-10s by pass (raw): %s" % (name, " ".join(
                "%.4g" % p[name] for p in passes)))
        print("reference  median %.4g s over %d points (%.4g s nominal)"
              % (statistics.median(r["ref_mid_s"] for r in points)
                 if points else 0.0, len(points), REFERENCE_S))
        if passes and done is not None:
            # Each point's time scaled by the reference timed around it,
            # then each point's median over the passes, summed over the
            # points: a burst of host noise spoils one sample of one point,
            # not a whole pass, and a slow host slows the reference too.
            by_point = {}
            for rec in points:
                by_point.setdefault(rec["point"], []).append(rec)

            def total(key, scale=True):
                return sum(statistics.median(
                    scaled(r, key) if scale else r[key] for r in recs)
                    for recs in by_point.values())

            print("unscaled   setup_s %.4g  wall_s %.4g  replay_s %.4g"
                  % tuple(total(k, False)
                          for k in ("setup_s", "wall_s", "replay_s")))

            requests = sum(recs[0]["records"] for recs in by_point.values())
            # Peak after one pass over the workload: later passes only
            # repeat it for timing, and how many run depends on the host.
            values = {"setup_s": total("setup_s"), "wall_s": total("wall_s"),
                      "replay_req_per_s": requests / total("replay_s"),
                      "peak_rss_mb": passes[0]["peak_rss_mb"]}
            for m in spec["end_to_end"]:
                if m["name"] in values:
                    metrics[m["name"]] = {"value": values[m["name"]],
                                          "unit": m["unit"]}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = failed == 0 and not missing and code == 0
    print("%-28s %s" % ("points", attempted))
    print("%-28s %s" % ("points_failed", failed))
    for m in wanted:
        if m["name"] in metrics:
            print("%-28s %-14.6g %-10s (%s is better)"
                  % (m["name"], metrics[m["name"]]["value"], m["unit"],
                     m["better"]))
        else:
            print("%-28s missing" % m["name"])
    print("harness %.1f s" % harness_s)

    if args.record_pins:
        if not correct:
            fail_setup("not recording pins from a failed run")
        pins = pins or {"seed": args.seed, "workloads": {}}
        if args.seed != pins["seed"]:
            fail_setup("pins are recorded at seed %d" % pins["seed"])
        pins["workloads"][args.workload] = {
            p: {k: rec[k] for k in PINNED} for p, rec in first.items()}
        with open(PINS, "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")
        log("perfbench: recorded pins for " + args.workload)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
