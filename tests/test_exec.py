"""Tests for ``repro.exec``: task enumeration and the sharded sweep
executor's byte-identity guarantee (parallel output == serial output,
including under checkpoint/resume and the artifact cache)."""

import os
from collections import Counter

import pytest

from repro.cache import ArtifactCache
from repro.core.errors import SweepInterrupted
from repro.eval.experiments import (
    fig1_design_lists,
    generate_fig1,
    generate_table2,
    render_fig1,
    render_table2,
)
from repro.eval.measure import clear_measure_cache
from repro.exec import (
    ParallelSweepRunner,
    SweepTask,
    fig1_tasks,
    table2_tasks,
)
from repro.resilience.checkpoint import Checkpoint
from repro.resilience.runner import RunnerConfig, SweepRunner

FIG1_SIZES = dict(bsc_configs=1, bambu_configs=1, xls_stages=1)
CONFIG = RunnerConfig(n_matrices=2)


def _serial_fig1() -> str:
    clear_measure_cache()
    return render_fig1(generate_fig1(
        runner=SweepRunner(config=CONFIG), **FIG1_SIZES))


def _parallel_fig1(jobs=2, cache=None, checkpoint=None, abort_after=None,
                   **runner_kwargs) -> tuple[str, ParallelSweepRunner]:
    clear_measure_cache()
    lists = fig1_design_lists(**FIG1_SIZES)
    runner = ParallelSweepRunner(
        tasks=fig1_tasks(lists, FIG1_SIZES), jobs=jobs, cache=cache,
        config=CONFIG, checkpoint=checkpoint, abort_after=abort_after,
        **runner_kwargs)
    runner.prefetch()
    out = render_fig1(generate_fig1(runner=runner, design_lists=lists,
                                    **FIG1_SIZES))
    return out, runner


class TestTasks:
    def test_table2_tasks_include_baseline_and_both_configs(self):
        tasks = table2_tasks(["Chisel/Chisel"])
        assert tasks[0] == SweepTask("table2", "Verilog/Vivado", 0)
        assert tasks[1] == SweepTask("table2", "Verilog/Vivado", 1)
        assert {(t.key, t.index) for t in tasks} == {
            ("Verilog/Vivado", 0), ("Verilog/Vivado", 1),
            ("Chisel/Chisel", 0), ("Chisel/Chisel", 1)}

    def test_fig1_tasks_cover_every_point_in_order(self):
        lists = fig1_design_lists(**FIG1_SIZES)
        tasks = fig1_tasks(lists, FIG1_SIZES)
        expected = [(tool, i) for tool, designs in lists
                    for i in range(len(designs))]
        assert [(t.key, t.index) for t in tasks] == expected
        packed = tuple(sorted(FIG1_SIZES.items()))
        assert all(t.sizes == packed for t in tasks)

    def test_tasks_are_picklable(self):
        import pickle

        lists = fig1_design_lists(**FIG1_SIZES)
        tasks = fig1_tasks(lists, FIG1_SIZES)
        assert pickle.loads(pickle.dumps(tasks)) == tasks


class TestParallelIdentity:
    def test_fig1_parallel_equals_serial(self):
        serial = _serial_fig1()
        parallel, runner = _parallel_fig1(jobs=3)
        assert parallel == serial
        assert runner.stats["failed"] == 0
        assert runner.stats["ok"] > 0

    def test_table2_parallel_equals_serial(self):
        tools = ["Chisel/Chisel", "DSLX/XLS"]
        clear_measure_cache()
        serial = render_table2(generate_table2(
            tools=tools, runner=SweepRunner(config=CONFIG)))
        clear_measure_cache()
        runner = ParallelSweepRunner(tasks=table2_tasks(tools), jobs=2,
                                     config=CONFIG)
        runner.prefetch()
        parallel = render_table2(generate_table2(tools=tools, runner=runner))
        assert parallel == serial

    def test_injected_failure_matches_serial(self):
        clear_measure_cache()
        serial = render_fig1(generate_fig1(
            runner=SweepRunner(config=CONFIG,
                               inject_failures={"chisel-opt"}),
            **FIG1_SIZES))
        clear_measure_cache()
        lists = fig1_design_lists(**FIG1_SIZES)
        runner = ParallelSweepRunner(
            tasks=fig1_tasks(lists, FIG1_SIZES), jobs=2, config=CONFIG,
            inject_failures={"chisel-opt"})
        runner.prefetch()
        parallel = render_fig1(generate_fig1(runner=runner,
                                             design_lists=lists, **FIG1_SIZES))
        assert parallel == serial
        assert "FAILED(ScheduleError)" in parallel

    def test_prefetch_is_idempotent(self):
        clear_measure_cache()
        lists = fig1_design_lists(**FIG1_SIZES)
        runner = ParallelSweepRunner(
            tasks=fig1_tasks(lists, FIG1_SIZES), jobs=2, config=CONFIG)
        count = runner.prefetch()
        assert runner.prefetch() == count  # no second pool


class TestWorkerRecycling:
    """``max_tasks_per_child`` bounds how many tasks one worker process
    serves: a spent worker exits and its slot re-forks."""

    def _sweep(self, monkeypatch, tmp_path, max_tasks_per_child):
        """``(output, executor, tasks served per worker pid)``."""
        from repro.exec import LocalExecutor
        from repro.exec import worker as worker_mod

        log = tmp_path / "pids"
        run_task = worker_mod.run_task

        def logged(payload):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return run_task(payload)

        # Patched before the workers fork, so each one logs its pid.
        monkeypatch.setattr(worker_mod, "run_task", logged)
        executor = LocalExecutor(jobs=2,
                                 max_tasks_per_child=max_tasks_per_child)
        out, _ = _parallel_fig1(executor=executor)
        return out, executor, Counter(log.read_text().split())

    def test_one_task_per_child_forks_a_worker_per_task(self, monkeypatch,
                                                        tmp_path):
        """max_tasks_per_child=1: no worker process serves more than one
        task, so one worker is forked per task, and the rendered sweep
        stays byte-identical to the serial run."""
        serial = _serial_fig1()
        n_tasks = len(fig1_tasks(fig1_design_lists(**FIG1_SIZES), FIG1_SIZES))
        recycled, executor, served = self._sweep(monkeypatch, tmp_path, 1)
        assert recycled == serial
        assert set(served.values()) == {1}
        assert len(served) == n_tasks
        assert executor.stats["workers"] == n_tasks

    @pytest.mark.parametrize("limit", [64, None])
    def test_small_sweeps_fork_jobs_workers(self, monkeypatch, tmp_path,
                                            limit):
        """The default limit (64) and no limit (None) both fork exactly
        ``jobs`` workers for a sweep smaller than the limit."""
        _, executor, served = self._sweep(monkeypatch, tmp_path, limit)
        assert executor.stats["workers"] == 2
        assert len(served) == 2


class TestResumedParallelIdentity:
    def test_interrupted_then_resumed_parallel_equals_serial(self, tmp_path):
        serial = _serial_fig1()

        # Interrupt a checkpointed *parallel* sweep partway through the
        # consume phase...
        path = tmp_path / "fig1.jsonl"
        with pytest.raises(SweepInterrupted):
            _parallel_fig1(jobs=2, checkpoint=Checkpoint(path),
                           abort_after=4)
        assert 0 < len(Checkpoint(path, resume=True)) <= 4

        # ...then resume it, still parallel: checkpointed designs are not
        # re-measured, the rest come from a fresh prefetch, and the
        # rendered output is byte-identical to an uninterrupted serial run.
        resumed, runner = _parallel_fig1(
            jobs=2, checkpoint=Checkpoint(path, resume=True))
        assert resumed == serial
        assert runner.stats["checkpoint_hits"] > 0


class TestParallelWithCache:
    def test_workers_populate_shared_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        first, runner_a = _parallel_fig1(jobs=2, cache=cache)
        assert runner_a.cache.stats["puts"] > 0

        warm = ArtifactCache(tmp_path / "cache")
        second, runner_b = _parallel_fig1(jobs=2, cache=warm)
        assert second == first
        assert runner_b.cache.stats["hits"] > 0
        assert runner_b.cache.stats["puts"] == 0  # fully warm
