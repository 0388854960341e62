"""``sched_resume``: a checkpointed parallel schedule sweep, cancelled
half way and resumed.

One job runs ``run_schedule_sweep_chunked`` for a 2,000-window
solar-trace sweep (8,000 rows in 1,024-row chunks) at ``workers=2``
with a checkpoint, cancels it after half its waves, and resumes it to
the end.  Every job must raise ``RunInterrupted`` at exactly the half
way row and end with the digest of an uninterrupted run computed at
setup.  It covers scheduling input build and evaluation (in the
workers), the parallel runner's pool, shared-memory transport and
merge, and the durability write-then-read path; no other workload
reaches these layers.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile

from protocol import JobWorkload
from spans import Tracer

WINDOWS = 2000
CHUNK_ROWS = 1024
WORKERS = 2


def series_digest(series: dict) -> str:
    """SHA-256 over every output series, in name order."""
    digest = hashlib.sha256()
    for name in sorted(series):
        digest.update(name.encode())
        digest.update(series[name].tobytes())
    return digest.hexdigest()


def require_interrupted(error: object, expected_completed: int) -> str | None:
    """``None`` if the cancelled half really stopped at
    ``expected_completed`` rows, else what went wrong."""
    if error is None:
        return "the run was not interrupted: nothing was resumed"
    completed = getattr(error, "completed", None)
    if completed != expected_completed:
        return (
            f"interrupted at row {completed}, expected {expected_completed}"
        )
    return None


class SchedResume(JobWorkload):
    name = "sched_resume"
    layers = (
        ("parallel.runner", True),
        ("robustness.durability.commit", True),
        ("robustness.checkpoint.salvage", True),
        ("scheduling.sweep.build", False),
        ("scheduling.batch.eval", False),
    )

    def __init__(self, scratch: str) -> None:
        super().__init__()
        self.workdir = tempfile.mkdtemp(prefix="sched-", dir=scratch)
        self.path = os.path.join(self.workdir, "sweep.ckpt")
        self._pool_close = None

    def make_inputs(self, seed: int) -> None:
        from repro.core.errors import RunInterrupted
        from repro.core.intensity import solar_diurnal_trace
        from repro.parallel.policy import ExecutionPolicy
        from repro.robustness.checkpoint import (
            CountingCancelToken,
            run_schedule_sweep_chunked,
        )
        from repro.scheduling.sweep import ScheduleSweepSpec

        self.spec = ScheduleSweepSpec(
            trace=solar_diurnal_trace(500.0, 0.7), windows=WINDOWS, seed=seed
        )
        self.policy = ExecutionPolicy(workers=WORKERS)
        wave_rows = CHUNK_ROWS * WORKERS
        self.stop_after = math.ceil(self.spec.rows / wave_rows) // 2
        self.expected_completed = self.stop_after * wave_rows
        self._token = CountingCancelToken
        self._interrupted = RunInterrupted
        self._run = run_schedule_sweep_chunked

    def setup(self) -> None:
        self._observe_worker_memory()
        self.reference = series_digest(
            self._run(self.spec, chunk_rows=CHUNK_ROWS, policy=self.policy)
        )
        problem = self.check(0, self.job(0))  # warm-up
        if problem is not None:
            raise RuntimeError(f"warm-up job: {problem}")

    def _observe_worker_memory(self) -> None:
        """Read each pool's worker peaks just before it shuts down."""
        from repro.parallel.pool import WorkerPool

        if self._pool_close is not None:
            return
        original = self._pool_close = WorkerPool.close
        memory = self.memory

        def close(pool: WorkerPool) -> None:
            memory.observe_children([p.pid for p in pool._processes])
            original(pool)

        WorkerPool.close = close

    def inputs_digest(self) -> str:
        metadata = sorted(self.spec.fingerprint_metadata().items())
        return hashlib.sha256(repr(metadata).encode()).hexdigest()

    def job(self, index: int) -> object:
        try:
            self._run(
                self.spec,
                chunk_rows=CHUNK_ROWS,
                checkpoint_path=self.path,
                cancel=self._token(self.stop_after),
                policy=self.policy,
            )
        except self._interrupted as error:
            interrupted = error
        else:
            interrupted = None
        series = self._run(
            self.spec,
            chunk_rows=CHUNK_ROWS,
            checkpoint_path=self.path,
            resume=True,
            policy=self.policy,
        )
        return interrupted, series

    def check(self, index: int, output: object) -> str | None:
        interrupted, series = output
        problem = require_interrupted(interrupted, self.expected_completed)
        if problem is not None:
            return problem
        if series_digest(series) != self.reference:
            return "resumed sweep differs from the uninterrupted run"
        return None

    def install_layers(self, tracer: Tracer) -> None:
        import repro.robustness.checkpoint as checkpoint
        import repro.scheduling.batch as batch
        import repro.scheduling.sweep as sweep
        from repro.parallel.policy import default_start_method
        from repro.parallel.runner import ParallelRunner
        from repro.robustness.durability import DurableChunkStore

        if default_start_method() != "fork":
            raise RuntimeError("worker layers are traced only under fork")
        for attr in ("evaluate_schedule", "close"):
            tracer.wrap(ParallelRunner, attr, "parallel.runner")
        for attr in ("create", "append", "commit"):
            tracer.wrap(DurableChunkStore, attr, "robustness.durability.commit")
        tracer.wrap(checkpoint, "load_store_state", "robustness.checkpoint.salvage")
        tracer.wrap(DurableChunkStore, "open_resume", "robustness.checkpoint.salvage")
        tracer.wrap_shared(sweep, "build_schedule_batch", "scheduling.sweep.build")
        tracer.wrap_shared(batch, "evaluate_schedule_batch", "scheduling.batch.eval")

    def layer_extras(self, jobs: list) -> dict:
        """Worker build + eval seconds over the parent's parallel-runner
        seconds (pool start, dispatch, wait, merge and shutdown)."""
        steps = sum(
            d.get("scheduling.sweep.build", 0.0) + d.get("scheduling.batch.eval", 0.0)
            for _, d in jobs
        )
        wall = sum(d.get("parallel.runner", 0.0) for _, d in jobs)
        return {"parallel.runner.speedup": (steps / wall, "ratio")}

    def close(self) -> None:
        if self._pool_close is not None:
            from repro.parallel.pool import WorkerPool

            WorkerPool.close = self._pool_close
            self._pool_close = None
        shutil.rmtree(self.workdir, ignore_errors=True)
