#!/usr/bin/env python3
"""Self-test of the repo benchmark (perfbench).

    python3 perfbench/tests/selftest.py

From the repository root. Every run is smoke-sized (--smoke: tiny
inputs, short runs), so the whole test takes well under a minute once
the driver is built. It checks that:

- each workload, untraced and traced, prints every metric named in
  BENCHMARK.json with its unit, and passes its own output checks;
- an injected wrong output is caught: one flipped sim::Metrics field
  (paper-sweep, backlog-traced) or one corrupted fleet snapshot byte
  (fleet-day) must raise failed above 0 and clear "correct".

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload, trace, *extra):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "5",
               "--seconds", "0.2", "--trace", str(trace), "--smoke", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited "
                             f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            got = result["metrics"]
            for metric in wanted[trace]:
                entry = got.get(metric["name"])
                if entry is None:
                    problems.append(f"{workload} trace={trace}: "
                                    f"missing {metric['name']}")
                elif entry["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: "
                                    f"{metric['name']} in {entry['unit']}")
            if len(got) != len(wanted[trace]):
                problems.append(f"{workload} trace={trace}: "
                                f"{len(got)} metrics, want "
                                f"{len(wanted[trace])}")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: checks "
                                f"failed on clean output: {result}")

    for workload, kind in (("paper-sweep", "metrics"),
                           ("backlog-traced", "metrics"),
                           ("fleet-day", "snapshot")):
        for trace in (0, 1):
            result = run(workload, trace, "--inject", kind)
            if result["failed"] < 1 or result["correct"]:
                problems.append(f"{workload} trace={trace}: injected "
                                f"{kind} fault not caught: {result}")

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
