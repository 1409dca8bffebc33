#!/usr/bin/env python3
"""Served-path benchmark for `rebalance serve`.

Builds the daemon and the benchmark program from the sources of the
checkout it sits in, then runs one workload against the real binary:

    python3 perfbench/run.py --workload bulk_pipe --seed 1 --seconds 20 --trace 0

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics of the traced replica with --trace 1). The exit code is
non-zero when the build fails, the sources are missing or any correctness
check fails.

    python3 perfbench/run.py --self-test

runs the self-tests of the generator and the percentile helper.
See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_pipe", "interactive_tcp", "restart_single")
DAEMON = "bin/rebalance.exe"
PROGRAM = "perfbench/src/perfbench.exe"
BUILT = os.path.join(ROOT, "_build", "default")
# Every run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the daemon and the benchmark program in the checkout; True on success."""
    for need in ("dune-project", "bin/rebalance.ml", "lib/online/protocol.ml", "perfbench/src/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"{need} not found under {ROOT}: run from a checkout of the repository")
            return False
    dune = shutil.which("dune")
    if dune is None:
        log("dune not found on PATH")
        return False
    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "--display", "quiet", "./" + DAEMON, "./" + PROGRAM],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log("build failed")
        return False
    return True


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def pinning(workload):
    """interactive_tcp runs the client on one CPU and the daemon on another,
    so no run depends on where the scheduler happens to put them. The
    pipelined workloads, and any run on a host with one CPU, are not
    pinned."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if workload != "interactive_tcp" or len(cpus) < 2:
        return []
    return ["--pin", f"{cpus[0]},{cpus[1]}"]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown(not-a-git-checkout)"
    proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def run_program(args):
    """Run the benchmark program in its own process group so a timeout also stops
    every daemon it started."""
    proc = subprocess.Popen([os.path.join(BUILT, PROGRAM)] + args, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopped")
        return 3
    finally:
        # The program reaps its daemons itself; this catches any it left
        # behind after a crash or a timeout.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 2
    if args.self_test:
        return run_program(["selftest"])
    return run_program([
        "run", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--bin", os.path.join(BUILT, DAEMON), "--work", os.path.join(HERE, "_work"),
        "--commit", commit(), "--nproc", str(nproc()),
    ] + pinning(args.workload))


if __name__ == "__main__":
    sys.exit(main())
