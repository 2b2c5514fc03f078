#!/usr/bin/env python3
"""Builds and runs the crsat benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload report_chain|check_corpus|daemon_mix \
      --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/CMakeLists.txt (the
library from src/, the one-shot CLI and the crbench program) into the
directory named by CARGO_TARGET_DIR, or .bench_build; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is crbench's JSON result. The exit code is crbench's: 0 when every
output was correct, 1 on a wrong output, 2 when the benchmark could not
be built or set up (then no result line is printed).

--regen-reference re-records the committed reference of a workload at
the default seed (daemon_mix runs the CLI for it).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("report_chain", "check_corpus", "daemon_mix")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no crsat sources next to perfbench/ (src/CMakeLists.txt)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") is not None:
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target"] +
                 targets)
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-reference", action="store_true")
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench")
    targets = ["crbench"] + (["crsat_cli"] if args.regen_reference else [])
    build(build_dir, targets)

    command = [os.path.join(build_dir, "crbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bench-dir", os.path.relpath(HERE, ROOT),
               "--out-dir", out_dir]
    if args.regen_reference:
        command += ["--regen-reference",
                    "--cli", os.path.join(build_dir, "crsat_cli")]
    sys.stdout.flush()
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait()
    finally:
        # Reached with the child still running only when this script is
        # interrupted or terminated: stop it and wait for it to end.
        if child.poll() is None:
            child.terminate()
            child.wait()


def stop_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    sys.exit(main())
