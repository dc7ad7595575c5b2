#!/usr/bin/env python3
"""Benchmark of the swcc reproduction and the swccd service.

Run from the root of a checkout:

    python3 perfbench/run.py --workload validate --seed 1 --seconds 10 --trace 0

Builds the repository's libraries, swccd, trace_check and the workload
harness from source into .bench_build/, then runs one workload in its
own processes. With --trace 0 it prints every end-to-end metric of
BENCHMARK.json; with --trace 1 a separate traced run prints every
per-layer metric, the span self times and trace.overhead_pct, and
checks the trace JSON with tools/trace_check. Every output is checked;
the last line of stdout is the JSON result. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "perfbench"
RUN = Path(".perfbench_run")
DEFAULT_SEED = 1
# Set-ups timed per untraced run; setup_s is their median.
SETUPS = 5
# Seconds a whole run may take once built; the contract allows 180.
DEADLINE_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark package (both are quick
    no-ops once done)."""
    generator = []
    if shutil.which("ninja") and not (BUILD / "Makefile").exists():
        generator = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                   check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def stop(proc):
    """Kills whatever is left of a workload process's group (the
    process and any swccd it started) and reaps the process."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def launch(args, setup_only):
    """Starts a workload process; returns (proc, seconds to ready)."""
    cmd = [str(BUILD / "perfbench_workload"), *args]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # Own process group, so a timeout also stops the swccd it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError("workload process failed during set-up")
    return proc, ready


def run_workload(opts, run_dir):
    start = time.monotonic()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--run-dir", str(run_dir), "--bin-dir", str(BUILD)]
    setups = []
    for _ in range(SETUPS - 1 if opts.trace == 0 else 0):
        proc, ready = launch(args, setup_only=True)
        try:
            proc.communicate(timeout=60)
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise RuntimeError("set-up process exited with %d"
                               % proc.returncode)
        setups.append(ready)
    proc, ready = launch(args, setup_only=False)
    setups.append(ready)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError("workload process exited with %d"
                           % proc.returncode)
    return json.loads(out.strip().splitlines()[-1]), setups


def reference_mismatches(workload, outputs, record):
    path = HERE / "reference" / (workload + ".json")
    if record:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
        return 0
    if not path.exists():
        return len(outputs) or 1
    stored = json.loads(path.read_text())
    return sum(1 for key, value in outputs.items()
               if stored.get(key) != value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as the default-"
                             "seed reference instead of checking them")
    opts = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        log("run.py: unknown workload", opts.workload)
        return 2
    if opts.seconds <= 0:
        log("run.py: --seconds must be positive")
        return 2
    if opts.record_reference and opts.seed != DEFAULT_SEED:
        log("run.py: references are kept for seed", DEFAULT_SEED)
        return 2

    try:
        build()
        run_dir = RUN / opts.workload
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        result, setups = run_workload(opts, run_dir)
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError) as error:
        log("run.py:", error)
        return 1

    failed = result["failed"]
    attempted = max(1, result["attempted"])
    notes = list(result["failures"])
    if opts.seed == DEFAULT_SEED:
        bad = reference_mismatches(opts.workload, result["outputs"],
                                   opts.record_reference)
        if bad:
            failed += bad
            notes.append("%d outputs differ from perfbench/reference/%s.json"
                         % (bad, opts.workload))
    trace_ok = True
    trace_json = run_dir / "trace.json"
    if opts.trace == 1:
        check = subprocess.run([str(BUILD / "trace_check"), str(trace_json)],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True)
        trace_ok = check.returncode == 0
        notes.append("trace_check: " + check.stdout.strip())
    failed = min(failed, attempted)

    kind = "per_layer" if opts.trace == 1 else "end_to_end"
    measured = dict(result["metrics"])
    if opts.trace == 0:
        measured["setup_s"] = statistics.median(setups)
    unknown = set(measured) - {entry["name"] for entry in spec[kind]}
    if unknown:
        log("run.py: metrics missing from BENCHMARK.json:", sorted(unknown))
        return 1
    metrics = {}
    for entry in spec[kind]:
        # A per-layer metric of a layer this workload does not run
        # reads 0; every end-to-end metric must be measured.
        value = measured.get(entry["name"], 0 if opts.trace == 1 else None)
        if value is None:
            log("run.py: workload did not report", entry["name"])
            return 1
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    info = result["info"]
    print("perfbench %s seed=%d seconds=%g trace=%d" %
          (opts.workload, opts.seed, opts.seconds, opts.trace))
    print("host: nproc=%d isa=%s" % (info.pop("host.nproc"),
                                     info.pop("host.isa")))
    if opts.trace == 0:
        print("set-ups (s): " + " ".join("%.4f" % s for s in setups))
    for name, entry in metrics.items():
        print("  %-28s %14.6g %s" % (name, entry["value"], entry["unit"]))
    print("  %-28s %14.6g %s  (%d of %d operations)" %
          ("err_pct", 100.0 * failed / attempted, "%", failed, attempted))
    for name in sorted(info):
        print("  %-28s %s" % (name, info[name]))
    for note in notes:
        print("  note: " + note)
    if opts.trace == 1:
        print("  trace JSON: %s" % trace_json)

    correct = failed == 0 and trace_ok
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
