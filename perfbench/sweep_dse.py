"""``sweep_dse``: a planned design-space sweep, its cache hit, and one
incremental design-selection step.

One job is three steps, the same in every job:

1. a 10 x 10 x 10 x 100 = 100k-point grid through
   ``sweep_grid_batched`` (the structure-aware planner engages), with
   one constant parameter shifted per job so the sweep misses the
   cache, then ``argmin``;
2. the identical sweep again, which is a cache hit;
3. ``ExplorationSession.explore`` over 1,024 design points of which 4
   moved since the previous job (incremental Pareto update).

No sampling happens here.  Setup fills the 64-entry cache with fill-only
shifts, so peak memory does not grow with the number of jobs.
"""

from __future__ import annotations

import hashlib

import numpy as np

from protocol import JobWorkload, cache_hit_ratio
from spans import Tracer

CANDIDATES = 1024
MOVED = 4
#: Job inputs generated per run; a run needs ~2,000 at most.
INPUTS = 8192
#: Shift between two jobs' constant parameter (``dram_gb``).
SHIFT_GB = 1e-3


class SweepDse(JobWorkload):
    name = "sweep_dse"
    layers = (
        ("engine.plan.sweep", True),
        ("engine.cache.miss", True),
        ("engine.cache.hit", True),
        ("dse.optimizer.points", True),
        ("dse.optimizer.session", True),
    )

    def make_inputs(self, seed: int) -> None:
        from repro.analysis.scenario import ActScenario
        from repro.core.metrics import DesignPoint
        from repro.dse.optimizer import ExplorationSession
        from repro.dse.sweep import sweep_grid_batched
        from repro.engine.cache import DEFAULT_CACHE

        rng = np.random.default_rng(seed)
        self.base = ActScenario()
        self.grids = {
            "soc_area_cm2": np.sort(rng.uniform(0.5, 3.0, 10)),
            "ci_use_g_per_kwh": np.sort(rng.uniform(30.0, 800.0, 10)),
            "fab_yield": np.sort(rng.uniform(0.5, 0.98, 10)),
            "energy_kwh": np.sort(rng.uniform(1.0, 30.0, 100)),
        }
        self.cache = DEFAULT_CACHE
        self.fill = DEFAULT_CACHE.capacity
        rows = self.fill + INPUTS
        # Job i shifts dram_gb to its own value; the first `fill` values
        # are used only by setup, so measured jobs always miss.
        self.dram_gb = 1.0 + rng.uniform(0.0, SHIFT_GB) + SHIFT_GB * np.arange(rows)
        self.moved_rows = np.stack(
            [rng.choice(CANDIDATES, MOVED, replace=False) for _ in range(rows)]
        )
        self.moved_values = rng.uniform(1.0, 10.0, (rows, MOVED, 3))
        self.initial = rng.uniform(1.0, 10.0, (CANDIDATES, 4))
        self._point = DesignPoint
        self._session = ExplorationSession
        self._sweep = sweep_grid_batched

    def setup(self) -> None:
        self.points = [
            self._point(f"design-{i}", carbon, energy, delay, area_mm2=area)
            for i, (carbon, energy, delay, area) in enumerate(self.initial.tolist())
        ]
        self.session = self._session()
        self.session.explore(self.points)
        self.phase = "miss"
        self._offset = 0
        self.cache.clear()
        for index in range(self.fill):
            self.job(index)
        self._offset = self.fill

    def inputs_digest(self) -> str:
        digest = hashlib.sha256()
        for name, axis in self.grids.items():
            digest.update(name.encode())
            digest.update(axis.tobytes())
        for array in (self.dram_gb, self.moved_rows, self.moved_values, self.initial):
            digest.update(array.tobytes())
        return digest.hexdigest()

    def job(self, index: int) -> object:
        row = self._offset + index % INPUTS
        base = self.base.replace(dram_gb=float(self.dram_gb[row]))
        self.phase = "miss"
        miss = self._sweep(base, self.grids)
        best = miss.argmin()
        self.phase = "hit"
        hit = self._sweep(base, self.grids)
        points = self.points
        for moved, (carbon, energy, delay) in zip(
            self.moved_rows[row], self.moved_values[row]
        ):
            old = points[moved]
            points[moved] = self._point(
                old.name, float(carbon), float(energy), float(delay), old.area_mm2
            )
        explored = self.session.explore(points)
        return base, miss, best, hit, explored

    def check(self, index: int, output: object) -> str | None:
        """The argmin row against the scalar model, the hit against the
        miss, and the session against a fresh batched exploration."""
        from repro.dse.optimizer import explore_batched

        base, miss, best, hit, explored = output
        totals = miss.result.total_g
        if len(totals) != 100_000 or best != int(np.argmin(totals)):
            return f"argmin {best} is not the minimum of {len(totals)} rows"
        scalar = base.replace(**miss.params(best)).total_g()
        if scalar != totals[best]:
            return f"argmin row: planned {totals[best]!r} != scalar {scalar!r}"
        if not np.array_equal(hit.result.total_g, totals):
            return "cache hit differs from the miss it repeats"
        fresh = explore_batched(self.points)
        if fresh.winners != explored.winners or {
            point.name for point in fresh.pareto
        } != {point.name for point in explored.pareto}:
            return "incremental exploration differs from a fresh one"
        return None

    def install_layers(self, tracer: Tracer) -> None:
        import repro.dse.optimizer as optimizer
        import repro.engine.plan as plan

        for attr in ("plan_product", "verify_plan"):
            tracer.wrap(plan, attr, "engine.plan.sweep")
        tracer.wrap(plan.SweepPlan, "evaluate", "engine.plan.sweep")
        tracer.wrap(plan, "evaluate_plan_cached", lambda: f"engine.cache.{self.phase}")
        tracer.wrap(optimizer, "stack_design_points", "dse.optimizer.points")
        tracer.wrap(optimizer.ExplorationSession, "explore", "dse.optimizer.session")
        self._stats_before = self.cache.stats()

    def close(self) -> None:
        """Drop the cached results (hundreds of MiB) this workload made."""
        cache = getattr(self, "cache", None)
        if cache is not None:
            cache.clear()

    def layer_extras(self, jobs: list) -> dict:
        ratio = cache_hit_ratio(self._stats_before, self.cache.stats())
        return {"engine.cache.hit_ratio": (ratio, "ratio")}
