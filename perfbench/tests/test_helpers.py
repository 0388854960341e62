"""Self-tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from measure import (
    MIN_JOBS,
    PeakMemory,
    TooFewSamples,
    percentile,
    quartile_spread,
    run_jobs,
    vm_hwm_mb,
)
from spans import Tracer


# --- percentiles ------------------------------------------------------------


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 90.0) == 90
    assert percentile([7.0], 50.0) == 7.0


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(list(range(100)), 90.0) == 89
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90.0)
    with pytest.raises(TooFewSamples):
        percentile([], 50.0)


def test_job_loop_runs_enough_jobs_for_p90():
    log = run_jobs(lambda i: i, lambda i, out: None, seconds=0.0)
    assert log.attempted == MIN_JOBS
    assert log.p90_ms() >= log.p50_ms()


def test_job_loop_counts_failures_and_wrong_outputs():
    def job(index):
        if index == 3:
            raise ValueError("boom")
        return index

    log = run_jobs(job, lambda i, out: "odd" if out % 2 else None, seconds=0.0, min_jobs=10)
    assert (log.attempted, log.failed, log.incorrect, log.ok) == (10, 1, 4, 5)


def test_quartile_spread():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([9.0, 10.0, 10.0, 10.0, 11.0]) == pytest.approx(0.1)


# --- open-loop due-time accounting -----------------------------------------


class _StubRequests:
    def sequence_row(self, index):
        return index

    def body(self, row):
        return b"{}"

    def check(self, row, status, data):
        return None


def test_open_loop_times_from_due_time():
    from http_footprint import open_loop_times

    assert open_loop_times(due=1.0, sent=1.5, done=2.0) == (1.0, 0.5)


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    from http_footprint import RATE_PER_S, Tally, _open_loop

    stall = 0.05

    def send(body):
        if not calls:
            time.sleep(stall)
        calls.append(body)
        return 200, b"{}"

    calls: list[bytes] = []
    tally = Tally()
    start = time.perf_counter() + 0.01
    _open_loop(send, _StubRequests(), range(10), start, 0, tally)
    assert tally.attempted == 10 and tally.not_ok == 0
    # Request 1 was due 1 ms after request 0 but could only be sent once
    # the stall ended: its latency counts that wait.
    assert tally.latencies_s[0] >= stall
    assert tally.lateness_s[1] >= stall - 2.0 / RATE_PER_S
    assert tally.latencies_s[1] >= stall - 2.0 / RATE_PER_S
    # Once the backlog drains the requests are on time again.
    assert min(tally.lateness_s) < stall / 2


# --- peak memory -----------------------------------------------------------


def test_peak_rss_includes_children():
    child_mb = 64
    code = (
        "import sys, time\n"
        f"block = bytearray({child_mb} << 20)\n"
        "for i in range(0, len(block), 4096): block[i] = 1\n"
        "print('ready', flush=True)\n"
        "sys.stdin.read()\n"
    )
    child = subprocess.Popen(
        [sys.executable, "-c", code],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert child.stdout.readline().strip() == "ready"
        memory = PeakMemory()
        alone = memory.total_mb()
        memory.observe_children([child.pid])
        assert memory.children_mb >= child_mb
        assert memory.total_mb() >= alone + child_mb
        # A child that is gone leaves the recorded peak in place.
        child.stdin.close()
        child.wait(timeout=30)
        memory.observe_children([child.pid])
        assert memory.children_mb >= child_mb
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)


def test_vm_hwm_of_self():
    assert vm_hwm_mb() > 1.0


# --- tracer ----------------------------------------------------------------


class _Layers:
    @staticmethod
    def inner():
        time.sleep(0.02)

    @classmethod
    def outer(cls):
        time.sleep(0.01)
        cls.inner()


def test_tracer_self_time_excludes_wrapped_children():
    original_outer = _Layers.__dict__["outer"]
    with Tracer() as tracer:
        tracer.wrap(_Layers, "inner", "inner")
        tracer.wrap(_Layers, "outer", "outer")
        _Layers.outer()
        totals = tracer.totals()
    assert 0.02 <= totals["inner"] < 0.04
    assert 0.01 <= totals["outer"] < 0.02
    assert _Layers.__dict__["outer"] is original_outer


# --- sched_resume's interrupt assertion ------------------------------------


def test_require_interrupted():
    from sched_resume import require_interrupted

    class Interrupted:
        completed = 4096

    assert require_interrupted(Interrupted(), 4096) is None
    assert "not interrupted" in require_interrupted(None, 4096)
    assert "expected 2048" in require_interrupted(Interrupted(), 2048)


def _chunked_run(stop_after):
    from repro.core.errors import RunInterrupted
    from repro.core.intensity import solar_diurnal_trace
    from repro.parallel.policy import ExecutionPolicy
    from repro.robustness.checkpoint import CountingCancelToken, run_schedule_sweep_chunked
    from repro.scheduling.sweep import ScheduleSweepSpec

    spec = ScheduleSweepSpec(trace=solar_diurnal_trace(500.0, 0.7), windows=250, seed=3)
    try:
        run_schedule_sweep_chunked(
            spec,
            chunk_rows=256,
            cancel=CountingCancelToken(stop_after),
            policy=ExecutionPolicy(workers=2),
        )
    except RunInterrupted as error:
        return error
    return None


def test_require_interrupted_catches_a_token_that_never_fires():
    from sched_resume import require_interrupted

    # 1,000 rows in two 512-row waves: a token allowing two polls lets
    # the whole run finish, so there is nothing to resume.
    assert "not interrupted" in require_interrupted(_chunked_run(2), 512)
    assert require_interrupted(_chunked_run(1), 512) is None


# --- process lifecycle ------------------------------------------------------


def _gone(pid: int) -> bool:
    """The process has exited (a zombie left to an init that does not
    reap counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _wait_gone(pid: int, seconds: float = 10.0) -> bool:
    deadline = time.monotonic() + seconds
    while not _gone(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def test_resource_tracker_is_stopped_and_waited_for():
    from multiprocessing import shared_memory

    from lifecycle import stop_resource_tracker

    segment = shared_memory.SharedMemory(create=True, size=4096)
    segment.close()
    segment.unlink()
    pid = stop_resource_tracker()
    assert pid is not None
    assert _gone(pid)  # waited for, not merely signalled
    assert stop_resource_tracker() is None


_GUARDED_PARENT = (
    "import multiprocessing, sys, time\n"
    "from lifecycle import guard_children\n"
    "guard_children()\n"
    "child = multiprocessing.get_context('fork').Process(target=time.sleep, args=(120,))\n"
    "child.start()\n"
    "print(child.pid, flush=True)\n"
    "try:\n"
    "    time.sleep(120)\n"
    "finally:\n"
    "    child.terminate(); child.join(); print('cleaned', flush=True)\n"
)


def _guarded_parent():
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parent = subprocess.Popen(
        [sys.executable, "-c", _GUARDED_PARENT],
        cwd=bench, stdout=subprocess.PIPE, text=True,
    )
    return parent, int(parent.stdout.readline())


def test_sigterm_runs_cleanup():
    parent, child = _guarded_parent()
    parent.terminate()
    out, _ = parent.communicate(timeout=30)
    assert out.strip() == "cleaned"
    assert parent.returncode == 128 + 15
    assert _wait_gone(child)


def test_forked_child_dies_with_a_killed_parent():
    parent, child = _guarded_parent()
    parent.kill()
    parent.communicate(timeout=30)
    assert _wait_gone(child)


# --- the result line ---------------------------------------------------------


def test_run_refuses_without_program_sources(tmp_path):
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.dirname(bench)
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in os.listdir(bench):
        if name.endswith(".py"):
            (copy / name).write_bytes(open(os.path.join(bench, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(root, "BENCHMARK.json"), "rb").read()
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_fresh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith('{"correct"') for line in done.stdout.splitlines())


def test_benchmark_json_follows_the_contract():
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(os.path.dirname(bench), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == [
        "mc_fresh", "sweep_dse", "sched_resume", "http_footprint"
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert set(e2e) == {
        "setup_s", "jobs_per_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb", "success_rate"
    }
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    names = [m["name"] for m in spec["per_layer"]] + list(e2e)
    assert len(names) == len(set(names))
    assert all(len(name) <= 64 for name in names)
