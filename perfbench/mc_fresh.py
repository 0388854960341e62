"""``mc_fresh``: serial Monte Carlo with a fresh seed per job.

One job is ``run_monte_carlo(ActScenario(), draws=100_000, seed=s)``,
triangular over every Table 1 range, through the process-wide
evaluation cache.  Every job's seed is new, so every cache lookup
misses: the job is sampling, batch validation, content hashing and the
kernel.  It bypasses the sweep planner, the service and checkpoints.

Setup fills the 64-entry cache with fill-only seeds, so the measured
jobs evict one 8 MB entry each and peak memory no longer grows with the
number of jobs.
"""

from __future__ import annotations

import hashlib

import numpy as np

from protocol import JobWorkload, cache_hit_ratio
from spans import Tracer

DRAWS = 100_000
CHECK_ROWS = 8
#: Seeds generated per run; a run needs ~2,400 at most.
SEEDS = 8192


class McFresh(JobWorkload):
    name = "mc_fresh"
    layers = (
        ("analysis.montecarlo.sample", True),
        ("engine.batch.validate", True),
        ("engine.cache.key", True),
        ("engine.kernels.eval", True),
    )

    def make_inputs(self, seed: int) -> None:
        from repro.analysis.montecarlo import run_monte_carlo
        from repro.analysis.scenario import ActScenario
        from repro.engine.cache import DEFAULT_CACHE

        self.base = ActScenario()
        self.cache = DEFAULT_CACHE
        states = np.random.SeedSequence(seed).generate_state(
            SEEDS + DEFAULT_CACHE.capacity, dtype=np.uint64
        )
        self.seeds = [int(value) for value in states[:SEEDS]]
        self.fill_seeds = [int(value) for value in states[SEEDS:]]
        self._run = run_monte_carlo

    def setup(self) -> None:
        self.cache.clear()
        for fill_seed in self.fill_seeds:
            self._run(self.base, draws=DRAWS, seed=fill_seed)

    def inputs_digest(self) -> str:
        return hashlib.sha256(np.asarray(self.seeds, dtype=np.uint64)).hexdigest()

    def job(self, index: int) -> object:
        return self._run(self.base, draws=DRAWS, seed=self.seeds[index % SEEDS])

    def check(self, index: int, output: object) -> str | None:
        """``CHECK_ROWS`` sampled draws against the scalar model."""
        from repro.analysis.montecarlo import sample_parameter_columns

        samples = output.samples
        if samples.shape != (DRAWS,) or not np.isfinite(samples).all():
            return f"samples have shape {samples.shape} or are not finite"
        seed = self.seeds[index % SEEDS]
        columns = sample_parameter_columns(self.base, draws=DRAWS, seed=seed)
        rows = np.random.default_rng(seed).choice(DRAWS, CHECK_ROWS, replace=False)
        for row in rows:
            scenario = self.base.replace(
                **{name: float(column[row]) for name, column in columns.items()}
            )
            if scenario.total_g() != samples[row]:
                return (
                    f"draw {row}: batched {samples[row]!r} != scalar "
                    f"{scenario.total_g()!r}"
                )
        return None

    def install_layers(self, tracer: Tracer) -> None:
        import repro.analysis.montecarlo as montecarlo
        import repro.engine.cache as cache
        from repro.engine.batch import ScenarioBatch

        tracer.wrap(montecarlo, "sample_parameter_columns", "analysis.montecarlo.sample")
        tracer.wrap(ScenarioBatch, "from_columns", "engine.batch.validate")
        tracer.wrap(cache, "batch_key", "engine.cache.key")
        tracer.wrap(cache, "evaluate_batch", "engine.kernels.eval")
        self._stats_before = self.cache.stats()

    def close(self) -> None:
        """Drop the cached results (hundreds of MiB) this workload made."""
        cache = getattr(self, "cache", None)
        if cache is not None:
            cache.clear()

    def layer_extras(self, jobs: list) -> dict:
        ratio = cache_hit_ratio(self._stats_before, self.cache.stats())
        return {"engine.cache.hit_ratio": (ratio, "ratio")}

