#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gates.

    python3 perfbench/selftest.py

Run from the root of a source tree. Builds and runs perfbench_gates_test
(each gate function against a conforming and a violating input), then
runs the cheapest workload end to end: once clean on a held-out seed,
which must pass, and once per gate with that gate broken on purpose
(run.py --violate), which must fail with exit code non-zero and
correct=false. Exit code 0 when every expectation holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 987654321

# (gate broken on purpose, trace mode, text the failure report must name)
VIOLATIONS = [
    ("answer", 0, "GATE FAILED: answer"),
    ("window", 0, "GATE FAILED: window"),
    ("reconcile", 0, "GATE FAILED: reconcile"),
    ("fingerprint", 0, "GATE FAILED: fingerprint"),
    ("digest", 1, "GATE FAILED: digest"),
]


def run(violate, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", "serve_lookup", "--seed", str(HELD_OUT_SEED),
           "--seconds", "1", "--trace", str(trace)]
    if violate:
        cmd += ["--violate", violate]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, proc.stdout


def main():
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        failures += 0 if ok else 1

    code, result, _ = run("", 1)
    expect(code == 0 and result is not None and result["correct"]
           and result["failed"] == 0,
           "held-out seed %d runs clean, traced and untraced" % HELD_OUT_SEED)

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    built = subprocess.run(["cmake", "--build", build_dir, "--target",
                            "perfbench_gates_test"], stdout=subprocess.DEVNULL)
    unit = subprocess.run([os.path.join(build_dir, "perfbench_gates_test")]) \
        if built.returncode == 0 else built
    expect(unit.returncode == 0, "perfbench_gates_test passes")

    for gate, trace, report in VIOLATIONS:
        code, result, out = run(gate, trace)
        expect(code != 0 and result is not None and not result["correct"]
               and report in out,
               "breaking the %s gate fails the run" % gate)

    print("self-test %s" % ("passed" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
