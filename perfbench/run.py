#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload sim|exact --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/main.exe from
source with dune (release profile, build directory .bench_build, dune
cache off, so nothing is written outside the checkout), runs it in its
own process group, relays its output and exits with its exit code.  The
last line of stdout is the JSON result: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics for --trace 0 and the
per-layer metrics for --trace 1.  The metric names are checked against
BENCHMARK.json.

It exits non-zero without printing a result when the repository's
sources are missing, the build fails, or the run exceeds its time
limit.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def flambda():
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-config"],
                             capture_output=True, text=True).stdout
    except OSError:
        return "unknown"
    for line in out.splitlines():
        if line.startswith("flambda:"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def declared_names(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    if not os.path.isfile("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description="Build and run perfbench.")
    ap.add_argument("--workload", required=True, choices=["sim", "exact"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "main.ml"))):
        fail("run from the repository root: dune-project, lib/ or perfbench/ is missing")

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled", "./perfbench/main.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(build.stdout[-4000:])
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--flambda", flambda()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    expired = threading.Event()

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_timeout():
        expired.set()
        kill_group()

    watchdog = threading.Timer(RUN_TIMEOUT_S, on_timeout)
    watchdog.start()
    last = ""
    try:
        for line in proc.stdout:
            if expired.is_set():
                break
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        # The benchmark stops its daemons itself; this catches any left
        # behind by a crash or a timeout.
        kill_group()
        proc.wait()
    if expired.is_set():
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    names = declared_names(args.trace == 1)
    if code == 0 and names is not None:
        got = set(json.loads(last)["metrics"])
        if got != names:
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
                 % (sorted(names - got), sorted(got - names)))
    sys.exit(code)


if __name__ == "__main__":
    main()
