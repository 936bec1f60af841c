#!/usr/bin/env python3
"""Self-test of the benchmark itself, in short mode.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that:
  - a short end-to-end run and a short traced run are correct and carry
    exactly the metrics BENCHMARK.json names (run.py enforces the names);
  - a deliberately corrupted reply fails the bit-identity check;
  - a reply turned into an error reply fails the run;
  - a lost reply fails the conservation check.
Exits 0 when every check holds. Takes about a minute per workload.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHORT_S = "3"


def run(workload, trace, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SHORT_S, "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = run(workload, trace)
            names = {m["name"] for m in spec[section]}
            expect(code == 0 and result is not None and result["correct"]
                   and set(result["metrics"]) == names and result["attempted"] >= 1,
                   "%s --trace %d: correct, every %s metric present" % (workload, trace, section))
        code, result, text = run(workload, 0, "corrupt")
        expect(code != 0 and result is not None and not result["correct"]
               and "differ from serve::execute_one" in text,
               "%s: a corrupted reply fails the bit-identity check" % workload)
        code, result, text = run(workload, 0, "error")
        expect(code != 0 and result is not None and not result["correct"]
               and "requests failed" in text and result["failed"] >= 1,
               "%s: an error reply fails the run" % workload)
        code, result, text = run(workload, 0, "lose")
        expect(code != 0 and result is not None and not result["correct"]
               and "conservation violated" in text and result["failed"] >= 1,
               "%s: a lost reply fails conservation" % workload)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
