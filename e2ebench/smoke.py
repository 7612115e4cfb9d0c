#!/usr/bin/env python3
"""Smoke check of the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/smoke.py

Runs every workload in BENCHMARK.json at the tiny size, timed and traced,
and asserts that each run passes its correctness gate, prints exactly the
metrics BENCHMARK.json names (end_to_end with --trace 0, per_layer with
--trace 1) with their units, and that both runs of a workload print the
same sim digest. Then asserts that malformed command lines (an unknown
flag, a flag missing its value, a bad value) exit nonzero without printing
a result. Exits nonzero on any failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def run(args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])


def digest_of(done):
    for line in done.stdout.splitlines():
        if line.startswith("sim digest "):
            return line.split()[2]
    return None


def check_run(spec, workload, trace, digests):
    key = "per_layer" if trace else "end_to_end"
    done = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny"])
    where = "%s --trace %d" % (workload, trace)
    result = result_of(done)
    if done.returncode != 0 or result is None:
        return ["%s: exit %d, no result\n%s" % (where, done.returncode,
                                                 done.stderr[-2000:])]
    errors = []
    digests.setdefault(workload, set()).add(digest_of(done))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True:
        errors.append("%s: correctness gate failed" % where)
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted %r" % (where, result.get("attempted")))
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in spec[key]}
    for name, unit in want.items():
        if name not in metrics:
            errors.append("%s: metric %s not printed" % (where, name))
        elif metrics[name].get("unit") != unit:
            errors.append("%s: %s unit %r, BENCHMARK.json says %r"
                          % (where, name, metrics[name].get("unit"), unit))
    for name in metrics:
        if name not in want:
            errors.append("%s: metric %s not in BENCHMARK.json %s"
                          % (where, name, key))
    return errors


def check_rejected(args):
    done = run(args)
    if done.returncode == 0 or result_of(done) is not None:
        return ["accepted a bad command line: %s" % " ".join(args)]
    return []


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    errors = []
    digests = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors += check_run(spec, workload, trace, digests)
        # Two runs of one seed (timed, traced) must simulate the same thing.
        seen = digests.get(workload, {None})
        if len(seen) != 1 or None in seen:
            errors.append("%s: sim digests differ across runs: %s"
                          % (workload, sorted(map(str, seen))))
    good = ["--workload", "stream", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--size", "tiny"]
    for bad in (good + ["--jsn", "x"],                 # unknown flag
                good[:-1],                             # --size has no value
                good[:2] + ["--seed"] + good[4:],      # --seed has no value
                good[:2] + good[4:],                   # --seed missing
                ["--workload", "nosuch"] + good[2:],   # unknown workload
                good[:6] + ["--trace", "2"] + good[8:]):  # bad value
        errors += check_rejected(bad)
    for error in errors:
        print("[FAIL] " + error)
    print("smoke: %s" % ("ok" if not errors else "%d failure(s)" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
