"""Measurement helpers shared by every workload: percentiles, the
closed job loop, peak memory, and the host record.

Nothing here imports the program under test, so the helpers can be
self-tested without it.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

#: Jobs a run must complete so that at least ten samples lie beyond p90.
MIN_JOBS = 100

#: The tail percentile reported everywhere (p99 is not steady on a
#: two-core host: 0.66-1.27 ms over three back-to-back HTTP runs).
TAIL_PERCENTILE = 90.0

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    Refuses (``TooFewSamples``) unless at least :data:`MIN_BEYOND`
    samples lie beyond the chosen rank, so a reported tail always rests
    on ten observations.  The median is exempt: it only needs one.
    """
    if not values:
        raise TooFewSamples("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if q > 50.0 and beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (run-to-run
    spread of one metric)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


@dataclass
class JobLog:
    """Per-job timings and outcomes of one measured loop."""

    seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed - self.incorrect

    def record_error(self, text: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(text)

    def p50_ms(self) -> float:
        return percentile(self.seconds, 50.0) * 1e3

    def p90_ms(self) -> float:
        return percentile(self.seconds, TAIL_PERCENTILE) * 1e3


def run_jobs(
    job: Callable[[int], object],
    check: Callable[[int, object], str | None],
    *,
    seconds: float,
    min_jobs: int = MIN_JOBS,
    max_seconds: float = 120.0,
    first_index: int = 0,
    before_job: Callable[[int], None] | None = None,
    after_job: Callable[[int, float], None] | None = None,
) -> JobLog:
    """A closed loop: run ``job(i)`` back to back for ``seconds`` and at
    least ``min_jobs`` jobs (never past ``max_seconds``), ``i`` counting
    from ``first_index``.

    Only the job call is timed.  ``before_job(i)`` and
    ``after_job(i, elapsed)`` run untimed right around it;
    ``check(i, output)`` runs after ``after_job`` and returns ``None`` or
    a description of what is wrong.  A job that raises counts as failed
    and its time is not recorded.
    """
    log = JobLog()
    started = time.perf_counter()
    index = first_index
    while True:
        log.attempted += 1
        if before_job is not None:
            before_job(index)
        t0 = time.perf_counter()
        try:
            output = job(index)
        except Exception as error:  # noqa: BLE001 - counted, reported
            log.failed += 1
            log.record_error(f"job {index}: {type(error).__name__}: {error}")
        else:
            elapsed = time.perf_counter() - t0
            log.seconds.append(elapsed)
            if after_job is not None:
                after_job(index, elapsed)
            problem = check(index, output)
            if problem is not None:
                log.incorrect += 1
                log.record_error(f"job {index}: {problem}")
        index += 1
        spent = time.perf_counter() - started
        if spent >= max_seconds or (
            spent >= seconds and log.attempted >= min_jobs
        ):
            return log


# --- memory ---------------------------------------------------------------


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for process {pid}")


class PeakMemory:
    """Peak RSS of this process plus its children.

    A child's peak is read from ``/proc/<pid>/status`` while it is still
    alive (call :meth:`observe_children` just before stopping it).
    Children that run at the same time are summed; the largest such sum
    over the run is kept.  Pages a forked child shares with its parent
    count once per process, so this is an upper bound on physical use.
    """

    def __init__(self) -> None:
        self.children_mb = 0.0

    def observe_children(self, pids: Sequence[int]) -> None:
        total = 0.0
        for pid in pids:
            try:
                total += vm_hwm_mb(pid)
            except OSError:
                continue  # already exited: nothing left to read
        self.children_mb = max(self.children_mb, total)

    def total_mb(self) -> float:
        return vm_hwm_mb() + self.children_mb


#: glibc ``mallopt`` parameters, and the values a run pins them to.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD_BYTES = 64 << 20
MMAP_THRESHOLD_BYTES = 32 << 20  # the largest value glibc moves it to


def pin_allocator() -> bool:
    """Fix glibc's heap trim and mmap thresholds for this process and
    the workers it forks.

    By default glibc moves both with the sizes a process frees, so the
    untimed output checks between jobs decided whether the next job's
    memory was still mapped or had to be faulted back in (``sweep_dse``:
    0 or 400-700 page faults a job, a second mode just above p50).
    Pinned, a job's page faults no longer depend on what ran between
    jobs.  Returns whether the thresholds were set (not off glibc).
    """
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
        return bool(
            libc.mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
            and libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
        )
    except (OSError, AttributeError):
        return False


# --- host record ------------------------------------------------------------


def calibration_ms(repeats: int = 7, size: int = 200_000) -> float:
    """Median time of a fixed pure-Python loop, in ms.

    Timed at the start and end of every run: when it moves together
    with a workload's numbers, the host drifted, not the program.
    """
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(size):
            acc = (acc * 31 + i) % 1_000_003
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> dict[str, object]:
    """Cores, CPU model, Python and numpy versions of this host."""
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
