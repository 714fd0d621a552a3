#!/usr/bin/env python3
"""Build the benchmark from source and run one workload of it.

Run from the repository root:

    python3 perfbench/run.py --workload solve|sweeps|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/main.exe and bin/sfserved.exe with dune,
runs the workload in its own process group and passes its output and
exit code through; the last stdout line is the JSON result.  --smoke
runs every workload of BENCHMARK.json briefly at small sizes, with
tracing off and on, and checks that every metric BENCHMARK.json names
is printed with its unit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

MAIN = "_build/default/perfbench/main.exe"
SFSERVED = "_build/default/bin/sfserved.exe"
TIMEOUT_S = 170


def build():
    cmd = ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/sfserved.exe"]
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        return False


def run_main(args, capture=False):
    """Run main.exe in its own process group; on timeout kill the group
    (the serve workload's daemon included)."""
    proc = subprocess.Popen(
        [MAIN, *args, "--sfserved", SFSERVED],
        stdout=subprocess.PIPE if capture else None,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {' '.join(args)} timed out after {TIMEOUT_S} s", file=sys.stderr)
        return 124, b""
    return proc.returncode, out


def smoke():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "2",
                    "--trace", trace, "--smoke"]
            code, out = run_main(args, capture=True)
            lines = out.decode().strip().splitlines()
            problems = []
            if code != 0 or not lines:
                problems.append(f"exit code {code}")
            else:
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if not result.get("correct") or result.get("failed") != 0:
                    problems.append("correctness check failed")
                if result.get("attempted", 0) < 1:
                    problems.append("nothing attempted")
                metrics = result.get("metrics", {})
                want = {m["name"]: m["unit"] for m in bench[group]}
                for name, unit in want.items():
                    got = metrics.get(name)
                    if got is None:
                        problems.append(f"missing {name}")
                    elif got.get("unit") != unit:
                        problems.append(f"{name} has unit {got.get('unit')}, not {unit}")
                for name in metrics:
                    if name not in want:
                        problems.append(f"unexpected metric {name}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {w['name']} trace {trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", choices=["0", "1"])
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    if a.smoke:
        return smoke()
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    code, _ = run_main(["--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", str(a.seconds), "--trace", a.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
