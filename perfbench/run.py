#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds the benchmark and the
repository libraries it links from source (into $CARGO_TARGET_DIR, else
.bench_build), runs one workload and prints every metric by name with its
unit. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json.
--trace 1 runs the untraced and then the traced binary on the same seed,
checks that both released the same rows, and reports the per-layer
metrics, including the tracing overhead (the traced run's headline
latency against the untraced one's). The span trace is written to the
build directory as trace-<workload>-<seed>.csv.

The exit code is 0 only when every correctness gate passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# The end-to-end metric whose traced/untraced ratio is the tracing
# overhead of each workload.
HEADLINE = {
    "release_cycle": "cycle_ms",
    "serve_lookup": "lookup_p50_us",
    "serve_refresh": "lookup_p50_us",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds both benchmark binaries (incremental)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "eep_perfbench", "eep_perfbench_traced"],
                   check=True, stdout=sys.stderr)


def run_binary(build_dir, traced, args, violate):
    """Runs one binary; returns its parsed result object."""
    binary = os.path.join(build_dir,
                          "eep_perfbench_traced" if traced else "eep_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--dir", os.path.join(build_dir, "store-%d" % os.getpid())]
    if traced:
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.csv" % (args.workload, args.seed))]
    if violate:
        cmd += ["--violate", violate]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def describe(result):
    """Prints the run's environment, preset sizes and sample counts."""
    for key, value in result["env"].items():
        print("env.%-32s %s" % (key, value))
    for name, metric in result["metrics"].items():
        print("samples.%-28s %d" % (name, metric["samples"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(HEADLINE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Breaks one correctness gate on purpose (selftest.py); "digest" is
    # applied to the traced binary only, so the two runs disagree.
    parser.add_argument("--violate", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1

    violate_untraced = "" if args.violate == "digest" else args.violate
    try:
        untraced = run_binary(build_dir, False, args, violate_untraced)
        result = untraced
        if args.trace:
            result = run_binary(build_dir, True, args, args.violate)
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as e:
        log("benchmark run failed: %s" % e)
        return 1

    correct = all(r["correct"] and r["exit_code"] == 0
                  for r in (untraced, result))
    measured = dict(result["metrics"])
    attempted = result["attempted"]
    failed = result["failed"]
    measured["error_rate"] = {"value": failed / attempted if attempted else 0.0,
                              "unit": "ratio", "samples": attempted}
    if args.trace:
        if untraced["digest"] != result["digest"]:
            print("GATE FAILED: digest: traced run released %s, untraced %s"
                  % (result["digest"], untraced["digest"]))
            correct = False
        head = HEADLINE[args.workload]
        base = untraced["metrics"][head]["value"]
        with_trace = result["metrics"][head]["value"]
        measured["trace.overhead_pct"] = {
            "value": 100.0 * (with_trace - base) / base if base else 0.0,
            "unit": "%", "samples": 1}
        print("tracing overhead on %s: %.6g -> %.6g" % (head, base, with_trace))

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in measured:
            print("GATE FAILED: metric %s was not measured" % name)
            correct = False
            continue
        metrics[name] = {"value": measured[name]["value"],
                         "unit": entry["unit"]}
    describe(result)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
