#!/usr/bin/env python3
"""Gate the campaign engine's thread scaling through `swcc validate`.

Usage: check_scaling.py SWCC_BINARY [--min-speedup X]

The workload is the validation matrix: Base and Dragon on the
pops-like profile at 1..4 CPUs and fig01's 120k instructions per CPU,
one `swcc validate` process per scheme, with the solver memo off
(SWCC_SOLVER_CACHE=off) so every run simulates. A configuration's time
is the wall time of both processes; the gate takes the best of 3 runs
at `--threads 1` and at `--threads 4` and fails when their ratio is
below X (default 1.5).

Every run must print the same bytes: `--threads 1`, `--threads 4`, a
fresh `--journal` run and a `--resume` from that journal. Any
difference fails the gate. On hosts with fewer than 4 hardware threads
the identity checks still run and the speedup check is skipped (exit 0),
since a wall-clock speedup cannot be measured there.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time

SCHEMES = ("base", "dragon")
REPS = 3
GATE_THREADS = 4


def hardware_threads():
    """CPUs this process may run on (the affinity mask, not the box)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_matrix(swcc, threads, journal=None, resume=False):
    """Runs both schemes; returns (their stdout, wall seconds)."""
    env = dict(os.environ, SWCC_SOLVER_CACHE="off")
    outputs = []
    start = time.perf_counter()
    for scheme in SCHEMES:
        command = [swcc, "validate", "--profile", "pops-like",
                   "--scheme", scheme, "--cpus", "4",
                   "--instructions", "120000", "--seed", "1989",
                   "--threads", str(threads)]
        if journal:
            command += ["--journal", f"{journal}.{scheme}"]
        if resume:
            command.append("--resume")
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True)
        if done.returncode != 0:
            sys.exit(f"{' '.join(command)} exited {done.returncode}:\n"
                     f"{done.stdout}{done.stderr}")
        outputs.append(done.stdout)
    return outputs, time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("swcc", help="path to the swcc binary")
    parser.add_argument("--min-speedup", type=float, default=1.5)
    args = parser.parse_args()

    reference, _ = run_matrix(args.swcc, 1)

    def expect_same(outputs, what):
        if outputs != reference:
            sys.exit(f"FAIL: {what} printed different output than "
                     f"--threads 1:\n{outputs}\nvs\n{reference}")

    with tempfile.TemporaryDirectory() as scratch:
        journal = os.path.join(scratch, "validate.journal")
        expect_same(run_matrix(args.swcc, GATE_THREADS, journal)[0],
                    "a --journal run")
        expect_same(run_matrix(args.swcc, GATE_THREADS, journal,
                               resume=True)[0],
                    "a --resume run")

    hw = hardware_threads()
    if hw < GATE_THREADS:
        expect_same(run_matrix(args.swcc, GATE_THREADS)[0],
                    f"--threads {GATE_THREADS}")
        print(f"outputs identical; speedup gate skipped: {hw} hardware "
              f"threads (need {GATE_THREADS})")
        return

    best = {1: float("inf"), GATE_THREADS: float("inf")}
    for _ in range(REPS):
        for threads in best:
            outputs, seconds = run_matrix(args.swcc, threads)
            expect_same(outputs, f"--threads {threads}")
            best[threads] = min(best[threads], seconds)
    speedup = best[1] / best[GATE_THREADS]
    print(f"validation matrix: {best[1]:.3f} s at 1 thread, "
          f"{best[GATE_THREADS]:.3f} s at {GATE_THREADS}: "
          f"{speedup:.2f}x (required {args.min_speedup}x); "
          f"outputs identical")
    if speedup < args.min_speedup:
        sys.exit("FAIL: below the required speedup")


if __name__ == "__main__":
    main()
