#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Usage (from the repository root):

    python3 perfbench/run.py --workload ycsb-b --seed 1 --seconds 20 --trace 0

Every argument is passed to the Go benchmark (perfbench/main.go). The
binary, the Go build cache, result files and watchdog stack dumps all
live under .bench_build/ at the repository root, so a run reads and
writes nothing outside the checkout. The last line of standard output is
the benchmark's JSON result; without one, the exit code is non-zero.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# A run measures for --seconds (at most 60) plus set-up; the in-process
# watchdog gives up on a stalled repetition after 30 s. This is the hard
# backstop behind both: SIGQUIT makes the Go runtime print every
# goroutine's stack before it exits.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    try:
        r = subprocess.run(
            ["go", "build", "-trimpath", "-o", BINARY, "."],
            cwd=HERE,
            env=go_env(),
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if r.returncode != 0:
        print("perfbench: build failed (the benchmark builds the repository's Go module from source)", file=sys.stderr)
        return False
    return True


def main():
    if not build():
        return 1
    args = [BINARY, "--out", os.path.join(BUILD, "results")] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s; dumping goroutine stacks", file=sys.stderr)
        proc.send_signal(signal.SIGQUIT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
