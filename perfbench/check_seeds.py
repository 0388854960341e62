"""Check that the workload seed matters to the inputs only.

Runs one workload's end-to-end measurement with two seeds and requires
(1) different input digests, so the seed really reaches the generated
inputs, and (2) every end-to-end metric of the second seed within the
bound ``BENCHMARK.json`` gives it, relative to the first seed's value,
so no seed is special.  Run from the repository root::

    python3 perfbench/check_seeds.py --workload sweep_dse --seeds 1 2 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """``(result line, detail line)`` of one end-to-end run."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def compare(first: dict, second: dict, bounds: dict) -> list[str]:
    """Metrics of ``second`` worse than ``first`` by more than their bound."""
    problems = []
    for name, (better, bound) in bounds.items():
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        worse = (b - a) / a if better == "lower" else (a - b) / a
        if worse > bound:
            problems.append(f"{name}: {a:.6g} -> {b:.6g} ({worse:+.1%} worse, bound {bound:.0%})")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    (first, first_detail), (second, second_detail) = (
        measure(args.workload, seed, args.seconds) for seed in args.seeds
    )
    problems = []
    if first_detail["inputs_sha256"] == second_detail["inputs_sha256"]:
        problems.append("both seeds generated the same inputs")
    if not (first["correct"] and second["correct"]):
        problems.append("a run reported incorrect outputs")
    problems += compare(first, second, bounds)
    for name in bounds:
        print(f"{name:14s} {first['metrics'][name]['value']:14.6f} "
              f"{second['metrics'][name]['value']:14.6f}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("seed check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
