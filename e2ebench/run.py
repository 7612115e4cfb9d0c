#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs it.

Run from the repository root:

    python3 e2ebench/run.py --workload <stream|churn|storm> --seed <n> \
        --seconds <s> --trace <0|1> [--size <full|tiny>]

The build lands in $CARGO_TARGET_DIR (default: .bench_build) under the
current directory. Arguments go to the benchmark binary unchanged; it
rejects unknown flags and flags missing their value. Build output goes to
stderr only on failure, so the last stdout line is the benchmark's JSON
result. Exits nonzero, printing no result, when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", build_dir, "--target", "bench_e2e",
            "--parallel", jobs]
    for step in (configure, make):
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("e2ebench: build failed: %s\n" % " ".join(step))
            return None
    return os.path.join(build_dir, "bench_e2e")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(os.path.join(target, "e2ebench")))
    if binary is None:
        return 1
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
