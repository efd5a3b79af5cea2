#!/usr/bin/env python3
"""Builds and runs the benchmark of record; see perfbench/README.md.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The benchmark binary, edkbench
(perfbench/*.cc), is compiled with the repository's library modules in one
build type, Release, into $CARGO_TARGET_DIR (default .bench_build), and then
run for one workload.
Human-readable lines go to stdout first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end_to_end set of BENCHMARK.json, with --trace 1 the
per_layer set. The exit code is 0 only when every correctness check passed.
Everything the run writes stays under the build directory.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
WORKLOADS = ("serve_mixed", "serve_search", "paper_pipeline", "crawl_scale")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, env):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", build_dir, "--target", "edkbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step %s failed: %s" % (step[:2], error))
            if done.returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    binary = os.path.join(build_dir, "edkbench")
    if not os.path.isfile(binary):
        fail("build produced no %s" % binary)
    return binary


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    work_dir = os.path.join(build_dir, "work")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    binary = build(root, build_dir, env)
    command = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
               "--work-dir=" + work_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("edkbench exited with %d" % done.returncode)
    try:
        run = json.loads(lines[-1])
    except ValueError:
        fail("edkbench printed no result object")

    failures = list(run["failures"])
    if run["build_type"] != BUILD_TYPE:
        failures.append("edkbench built as %s, not %s" % (run["build_type"], BUILD_TYPE))

    # The same program and seed must give the same output digest in every
    # run; the first run of a binary records it.
    digest_path = os.path.join(build_dir, "digests", "%s-%s-%d" % (
        file_digest(binary), args.workload, args.seed))
    os.makedirs(os.path.dirname(digest_path), exist_ok=True)
    if os.path.exists(digest_path):
        with open(digest_path) as f:
            recorded = f.read().strip()
        if recorded != run["digest"]:
            failures.append("output digest %s differs from %s recorded by an "
                            "earlier run of this seed" % (run["digest"], recorded))
    else:
        with open(digest_path, "w") as f:
            f.write(run["digest"] + "\n")

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in spec[kind]:
        name = metric["name"]
        value = run["metrics"].get(name)
        if value is None:
            if kind == "end_to_end":
                failures.append("end-to-end metric %s was not measured" % name)
                continue
            value = 0.0  # A layer this workload does not call did no work.
        if not math.isfinite(value):
            failures.append("metric %s is not finite" % name)
            continue
        if kind == "end_to_end" and value <= 0:
            failures.append("end-to-end metric %s is %g" % (name, value))
        metrics[name] = {"value": value, "unit": metric["unit"]}

    print("workload %s, seed %d, %g s, trace %d; nproc %d, exec threads %d, "
          "%s, %s build" % (args.workload, args.seed, args.seconds, args.trace,
                            run["nproc"], run["exec_threads"], run["compiler"],
                            run["build_type"]))
    for note in run["notes"]:
        print("  " + note)
    for name, metric in metrics.items():
        print("  %-42s %14.6g %s" % (name, metric["value"], metric["unit"]))
    for failure in failures:
        print("  FAILED: " + failure)
    failed = run["failed"] + (len(failures) - len(run["failures"]))
    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(run["attempted"], 1),
                      "failed": failed, "metrics": metrics}), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
