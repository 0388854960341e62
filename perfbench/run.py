"""Benchmark of the ACT reproduction: four workloads, end to end and
layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload mc_fresh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures one workload's end-to-end metrics with tracing
off.  ``--trace 1`` measures the per-layer budget of every workload
(``--workload`` only picks which one runs first), since
``BENCHMARK.json`` names each per-layer metric after the workload it
belongs to.  ``--workload all`` runs the four end-to-end measurements,
each in its own process.

The workloads, the metrics and their bounds are defined in
``BENCHMARK.json`` at the repository root.  Standard output ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it holds the host record, the calibration loop timed
at the start and end of the run, the inputs' digest and the errors.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("mc_fresh", "sweep_dse", "sched_resume", "http_footprint")
#: Every program module a workload uses, imported before setup starts.
PROGRAM_MODULES = (
    "repro.analysis.montecarlo",
    "repro.dse.optimizer",
    "repro.dse.sweep",
    "repro.engine.plan",
    "repro.parallel.runner",
    "repro.robustness.checkpoint",
    "repro.scheduling.sweep",
    "repro.service.app",
)
#: Longest a single measurement may take, so a run ends within 180 s.
MAX_MEASURE_S = 120.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def measure(name: str, seed: int, seconds: float, trace: bool, import_s: float, scratch: str):
    """One workload's :class:`protocol.Result`."""
    import http_footprint
    import protocol
    from mc_fresh import McFresh
    from sched_resume import SchedResume
    from sweep_dse import SweepDse

    if name == "http_footprint":
        workload = http_footprint.HttpFootprint(ROOT)
        run_e2e, run_layers = http_footprint.end_to_end, http_footprint.layer_budget
    else:
        workload = {
            "mc_fresh": McFresh,
            "sweep_dse": SweepDse,
            "sched_resume": lambda: SchedResume(scratch),
        }[name]()
        run_e2e, run_layers = protocol.end_to_end, protocol.layer_budget
    try:
        if trace:
            return run_layers(workload, seed, seconds)
        return run_e2e(workload, seed, seconds, import_s)
    finally:
        workload.close()


def run_all(args: argparse.Namespace) -> int:
    """Every workload's end-to-end run, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT,
            check=False,
        )
        status = status or completed.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = load_spec()
    sys.path.insert(0, SRC)
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    import_s = time.perf_counter() - STARTED

    from measure import calibration_ms, host_record

    names = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    seconds = min(args.seconds, MAX_MEASURE_S)
    scratch_root = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    metrics: dict[str, tuple[float, str]] = {}
    attempted = failed = 0
    detail: dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(),
    }
    try:
        if args.trace:
            calibration_start = calibration_ms()
            share = seconds / len(names)
            for name in names:
                result = measure(name, args.seed, share, True, import_s, scratch)
                metrics.update({f"{name}.{k}": v for k, v in result.metrics.items()})
                attempted += result.attempted
                failed += result.failed
                detail[name] = dict(result.detail, errors=result.errors)
            detail["calibration_ms"] = {"start": calibration_start, "end": calibration_ms()}
            wanted = [entry["name"] for entry in spec["per_layer"]]
        else:
            result = measure(args.workload, args.seed, seconds, False, import_s, scratch)
            metrics = result.metrics
            attempted, failed = result.attempted, result.failed
            detail.update(result.detail, errors=result.errors)
            wanted = [entry["name"] for entry in spec["end_to_end"]]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run still uses it

    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    for name in wanted:
        value, unit = metrics[name]
        print(f"{name:58s} {value:14.6f} {unit}")
    print(json.dumps({"detail": detail}))
    out = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted}
    finite = all(math.isfinite(entry["value"]) for entry in out.values())
    print(json.dumps({
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


def run(argv: list[str] | None = None) -> int:
    """:func:`main`, ending with every process it started stopped."""
    from lifecycle import guard_children, stop_resource_tracker
    from measure import pin_allocator

    pin_allocator()
    guard_children()
    try:
        return main(argv)
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(run())
