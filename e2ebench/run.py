#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 e2ebench/run.py --workload tpch-native --seed 42 --seconds 15 --trace 0

The harness (e2ebench/e2e.exe) is built with dune into .bench_build/ and
run in a child process of its own, with TMPDIR pointed at a fresh
directory under .bench_build/ that is deleted afterwards, so every file
the run writes (JIT artifacts, compiler temporaries, span files) stays in
the checkout. The harness's standard output passes through unchanged: its
last line is the JSON result. The exit status is the harness's, or 1 when
the build fails or the run overruns its time limit (the window plus
SETUP_MARGIN_S for set-up and the traced pass).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

BUILD_DIR = ".bench_build"
TARGET = "./e2ebench/e2e.exe"
BUILD_TIMEOUT_S = 600
# set-up (all repetitions), the reference answers and the traced pass
SETUP_MARGIN_S = 150


def build(root):
    cmd = [
        "dune", "build", "--root", root, "--build-dir", os.path.join(root, BUILD_DIR),
        "--cache=disabled", "--profile", "release", "-j", "2", TARGET,
    ]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print(f"run.py: build failed (dune exit {done.returncode})", file=sys.stderr)
    return done.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    root = os.getcwd()
    if not build(root):
        return 1
    exe = os.path.join(root, BUILD_DIR, "default", "e2ebench", "e2e.exe")
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, BUILD_DIR))
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace,
        "--out", os.path.join(root, BUILD_DIR, "spans"),
    ]
    # its own session, so a timeout kills the harness and every process
    # it started (set-up children, compilers, validation sandboxes)
    proc = subprocess.Popen(cmd, cwd=root, env=dict(os.environ, TMPDIR=tmp), start_new_session=True)
    limit = args.seconds + SETUP_MARGIN_S
    try:
        return proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} overran {limit:g} s", file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
