"""The two measuring protocols every closed-loop workload follows.

* :func:`end_to_end` (``--trace 0``): set up ``SETUP_REPEATS`` times,
  then run jobs back to back with tracing off.
* :func:`layer_budget` (``--trace 1``): set up once, run jobs untraced,
  then the same jobs with every layer's public functions wrapped, and
  split each traced job into per-layer self time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from measure import JobLog, PeakMemory, calibration_ms, run_jobs
from spans import Tracer, delta

#: Setup repetitions per end-to-end run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Jobs each half of a traced run needs (medians only, no tail).
TRACED_MIN_JOBS = 10


@dataclass
class Result:
    """What one workload measured: metrics, outcome counts, detail."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    detail: dict[str, object] = field(default_factory=dict)

    def add_log(self, log: JobLog) -> None:
        self.attempted += log.attempted
        self.failed += log.failed + log.incorrect
        self.errors.extend(log.errors)


class JobWorkload:
    """A workload whose unit of work is one job, run in a closed loop.

    Subclasses define the inputs (from the seed only), one setup
    repetition, one job, its output check, and the layers a traced run
    wraps.  Inputs are made once per run; setup repeats only the
    program's own preparation.  Every job does the same mix of work, so the reported
    percentiles sit inside one mode.
    """

    name = ""
    #: ``(layer, parent_side)``: parent-side layers are on the job's
    #: critical path and add up to its time; worker-side layers overlap
    #: the parent's wait and are reported, not summed.
    layers: tuple[tuple[str, bool], ...] = ()

    def __init__(self) -> None:
        self.memory = PeakMemory()

    def make_inputs(self, seed: int) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def job(self, index: int) -> object:
        raise NotImplementedError

    def check(self, index: int, output: object) -> str | None:
        raise NotImplementedError

    def inputs_digest(self) -> str:
        raise NotImplementedError

    def install_layers(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def layer_extras(self, jobs: list[tuple[float, dict[str, float]]]) -> dict:
        """Workload-specific per-layer ratios of the traced pass."""
        return {}

    def close(self) -> None:
        """Release processes and files (idempotent)."""


def cache_hit_ratio(before: object, after: object) -> float:
    """Hits per lookup between two ``EvaluationCache.stats()`` snapshots."""
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    return hits / lookups if lookups else 0.0


def timed_setups(workload: object, repeats: int) -> list[float]:
    """Seconds each of ``repeats`` complete setups took."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
    return times


def end_to_end(
    workload: JobWorkload, seed: int, seconds: float, import_s: float
) -> Result:
    """The ``--trace 0`` run: every end-to-end metric of ``workload``."""
    result = Result()
    calibration_start = calibration_ms()
    workload.make_inputs(seed)
    setups = timed_setups(workload, SETUP_REPEATS)
    log = run_jobs(workload.job, workload.check, seconds=seconds)
    calibration_end = calibration_ms()
    result.add_log(log)
    done = len(log.seconds)
    result.metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "jobs_per_s": (done / sum(log.seconds), "1/s"),
        "job_p50_ms": (log.p50_ms(), "ms"),
        "job_p90_ms": (log.p90_ms(), "ms"),
        "peak_rss_mb": (workload.memory.total_mb(), "MiB"),
        "success_rate": (log.ok / log.attempted, "ratio"),
    }
    result.detail = {
        "jobs": done,
        "error_rate": 1.0 - log.ok / log.attempted,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "calibration_ms": {"start": calibration_start, "end": calibration_end},
        "inputs_sha256": workload.inputs_digest(),
    }
    return result


def layer_budget(workload: JobWorkload, seed: int, seconds: float) -> Result:
    """The ``--trace 1`` run: per-layer self time per job, coverage, and
    tracing overhead for ``workload``."""
    result = Result()
    workload.make_inputs(seed)
    workload.setup()
    untraced = run_jobs(
        workload.job,
        workload.check,
        seconds=seconds / 2,
        min_jobs=TRACED_MIN_JOBS,
    )
    tracer = Tracer()
    jobs: list[tuple[float, dict[str, float]]] = []
    before: dict[str, float] = {}

    def snapshot(_index: int) -> None:
        before.clear()
        before.update(tracer.totals())

    def record(_index: int, elapsed: float) -> None:
        jobs.append((elapsed, delta(tracer.totals(), before)))

    workload.install_layers(tracer)
    with tracer:
        traced = run_jobs(
            workload.job,
            workload.check,
            seconds=seconds / 2,
            min_jobs=TRACED_MIN_JOBS,
            first_index=untraced.attempted,
            before_job=snapshot,
            after_job=record,
        )
    result.add_log(untraced)
    result.add_log(traced)
    if not jobs:
        return result

    def median_ms(layer: str) -> float:
        return statistics.median(d.get(layer, 0.0) for _, d in jobs) * 1e3

    parent = [layer for layer, on_path in workload.layers if on_path]
    metrics: dict[str, tuple[float, str]] = {
        f"{layer}_ms": (median_ms(layer), "ms") for layer, _ in workload.layers
    }
    untraced_p50 = untraced.p50_ms()
    metrics["unaccounted_ms"] = (
        statistics.median(
            elapsed - sum(d.get(layer, 0.0) for layer in parent)
            for elapsed, d in jobs
        )
        * 1e3,
        "ms",
    )
    metrics["layer_coverage"] = (
        sum(median_ms(layer) for layer in parent) / untraced_p50,
        "ratio",
    )
    metrics["trace_overhead"] = (traced.p50_ms() / untraced_p50, "ratio")
    metrics.update(workload.layer_extras(jobs))
    result.metrics = metrics
    result.detail = {
        "untraced_jobs": len(untraced.seconds),
        "traced_jobs": len(jobs),
        "untraced_p50_ms": untraced_p50,
        "traced_p50_ms": traced.p50_ms(),
    }
    return result

