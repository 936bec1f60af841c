#!/usr/bin/env python3
"""Build spotbid and run one perfbench workload (see README.md).

    python3 perfbench/run.py --workload point_rpc --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds
(Release, contracts on) into .bench_build/, or into $CARGO_TARGET_DIR when
that is set; later runs rebuild only what changed. The harness's output is relayed once it finishes, and its
JSON result is printed last, after this script has checked that the result
names exactly the metrics BENCHMARK.json declares for the mode. `--workload all` runs every
workload in turn. The exit code is 0 only for a correct run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
HARNESS = os.path.join(BUILD, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no spotbid sources next to perfbench/ (nothing to build)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                with open(log_path) as done:
                    sys.stderr.write("".join(done.readlines()[-30:]))
                fail("build failed (full log: %s)" % log_path)


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace, inject):
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir]
    if inject:
        cmd += ["--inject", inject]
    # The harness works for `seconds`, plus daemon launches and verification.
    timeout_s = 110 + 2 * seconds
    # Own process group: a timeout takes the spotbidd child down too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        fail("%s timed out after %d s" % (workload, timeout_s))
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))

    declared = declared_metrics(trace)
    if declared is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != declared:
            print("FAIL metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s" % (
                sorted(set(declared) - set(got)), sorted(set(got) - set(declared)),
                sorted(n for n in got if n in declared and got[n] != declared[n])))
            result["correct"] = False
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode == 0 and result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject", choices=("corrupt", "error", "lose"),
                        help="self-test only: inject a fault the checks must catch")
    args = parser.parse_args()

    started = time.time()
    build()
    print("perfbench: build ready in %.1f s" % (time.time() - started))
    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for workload in workloads:
        ok = run_one(workload, args.seed, args.seconds, args.trace, args.inject) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
