"""The deterministic parallel execution engine (repro.runtime).

Worker-visible behaviour is driven through real process pools; the fault
injection helpers distinguish parent from worker by pid so the same payload
fails in a pool and succeeds during the serial fallback.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
import repro.runtime.executor as executor_module
from repro.runtime import (
    JOBS_ENV_VAR,
    ParallelMap,
    Stopwatch,
    parallel_map,
    parallel_map_with_stats,
    resolve_jobs,
    spawn_streams,
    stream_seeds,
)
from repro.utils.validation import ReproError


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"boom on {x}")


def fail_in_worker(task):
    """Raises inside a pool worker, succeeds in the parent process."""
    parent_pid, x = task
    if os.getpid() != parent_pid:
        raise RuntimeError("injected worker failure")
    return x * x


def hang_in_worker(task):
    """Sleeps (bounded) inside a pool worker, returns instantly in the parent."""
    parent_pid, x = task
    if os.getpid() != parent_pid:
        time.sleep(1.5)
    return x * x


def fail_first_attempts(task):
    """Fails until *threshold* attempts were recorded in the scratch file."""
    path, threshold, x = task
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("attempt\n")
    with open(path, encoding="utf-8") as handle:
        attempts = len(handle.readlines())
    if attempts < threshold:
        raise RuntimeError(f"transient failure (attempt {attempts})")
    return x * x


class TestResolveJobs:
    def test_none_defaults_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    def test_none_reads_environment(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(None) == 3

    def test_bad_environment_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ReproError):
            resolve_jobs(None)

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit_count_passes_through(self):
        assert resolve_jobs(5) == 5

    @pytest.mark.parametrize("bad", [-1, True, 1.5, "4"])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ReproError):
            resolve_jobs(bad)


class TestSerialPaths:
    def test_jobs_one_runs_serially(self):
        results, stats = parallel_map_with_stats(square, range(10), jobs=1)
        assert results == [x * x for x in range(10)]
        assert stats.mode == "serial" and stats.fallback == "jobs=1"

    def test_tiny_input_short_circuits(self):
        results, stats = parallel_map_with_stats(square, [3], jobs=4)
        assert results == [9]
        assert stats.fallback == "tiny-input"

    def test_serial_exceptions_propagate(self):
        with pytest.raises(ValueError):
            parallel_map(boom, [1, 2], jobs=1)

    def test_empty_input(self):
        assert parallel_map(square, [], jobs=4) == []

    def test_closures_work_serially(self):
        offset = 10
        assert parallel_map(lambda x: x + offset, [1, 2, 3], jobs=1) == [11, 12, 13]


class TestParallelExecution:
    def test_results_in_task_order(self):
        results, stats = parallel_map_with_stats(square, range(25), jobs=3)
        assert results == [x * x for x in range(25)]
        assert stats.mode == "parallel" and stats.fallback is None
        assert stats.chunks >= 2
        assert stats.tasks == 25 and stats.jobs == 3

    def test_explicit_chunk_size(self, monkeypatch):
        monkeypatch.setattr(executor_module, "CHUNK_SIZE", 1)
        executor = ParallelMap(2)
        assert executor.map(square, range(6)) == [x * x for x in range(6)]
        assert executor.last_stats.chunks == 6

    def test_stats_describe_mentions_mode(self):
        _, stats = parallel_map_with_stats(square, range(8), jobs=2)
        assert "parallel" in stats.describe()

    def test_unpicklable_function_falls_back(self):
        offset = 5
        results, stats = parallel_map_with_stats(lambda x: x + offset, range(8), jobs=2)
        assert results == [x + 5 for x in range(8)]
        assert stats.mode == "serial" and stats.fallback == "unpicklable"

    def test_unpicklable_task_falls_back(self):
        import threading

        tasks = [(threading.Lock(), x) for x in range(6)]
        results, stats = parallel_map_with_stats(lambda t: t[1] * 2, tasks, jobs=2)
        assert results == [0, 2, 4, 6, 8, 10]
        assert stats.fallback == "unpicklable"

    def test_unpicklable_fallback_lets_the_interpreter_exit(self):
        """Chunks still queued for pickling when the serial fallback starts
        must leave the pool's work table; otherwise its manager thread waits
        for them forever and interpreter exit, which joins that thread,
        hangs. The child keeps every pool alive, so the manager thread always
        sees the shutdown while the executor still exists (the case that
        reaches the work table)."""
        code = textwrap.dedent("""
            import operator, pickle, time
            import repro.runtime.executor as executor_module
            from repro.runtime import ParallelMap

            class SlowToRefusePickling:
                def __reduce__(self):
                    time.sleep(0.1)
                    raise pickle.PicklingError("refuses to pickle")

            kept = []  # no pool is released before its manager thread winds down

            class KeptPool(executor_module.ProcessPoolExecutor):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    kept.append(self)

            executor_module.ProcessPoolExecutor = KeptPool
            executor_module.CHUNK_SIZE = 1
            executor = ParallelMap(2)
            tasks = [(SlowToRefusePickling(), x) for x in range(6)]
            assert executor.map(operator.itemgetter(1), tasks) == list(range(6))
            assert executor.last_stats.fallback == "unpicklable"
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # its own session, so a hung child takes its pool workers with it
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("interpreter exit hung after the unpicklable fallback")
        assert proc.returncode == 0, stderr


class TestFaultInjection:
    def test_worker_failure_retries_then_falls_back_serial(self, monkeypatch):
        monkeypatch.setattr(executor_module, "MAX_RETRIES", 1)
        monkeypatch.setattr(executor_module, "BACKOFF_SECONDS", 0.01)
        tasks = [(os.getpid(), x) for x in range(6)]
        executor = ParallelMap(2)
        results = executor.map(fail_in_worker, tasks)
        assert results == [x * x for x in range(6)]
        stats = executor.last_stats
        assert stats.mode == "serial" and stats.fallback == "task-failure"
        assert stats.retries >= 1
        assert any("injected worker failure" in err for err in stats.errors)

    def test_transient_failure_recovers_within_retry_budget(self, tmp_path, monkeypatch):
        scratch = tmp_path / "attempts.log"
        tasks = [(str(scratch), 2, 7)] * 3
        monkeypatch.setattr(executor_module, "CHUNK_SIZE", len(tasks))
        monkeypatch.setattr(executor_module, "MAX_RETRIES", 2)
        monkeypatch.setattr(executor_module, "BACKOFF_SECONDS", 0.01)
        executor = ParallelMap(2)
        results = executor.map(fail_first_attempts, tasks)
        assert results == [49, 49, 49]
        stats = executor.last_stats
        # the single chunk failed once, was resubmitted, then succeeded
        assert stats.mode == "parallel" and stats.retries == 1

    def test_timeout_falls_back_serial(self, monkeypatch):
        monkeypatch.setattr(executor_module, "TASK_TIMEOUT", 0.25)
        monkeypatch.setattr(executor_module, "MAX_RETRIES", 0)
        tasks = [(os.getpid(), x) for x in range(4)]
        executor = ParallelMap(2)
        started = time.perf_counter()
        results = executor.map(hang_in_worker, tasks)
        assert results == [x * x for x in range(4)]
        stats = executor.last_stats
        assert stats.mode == "serial" and stats.fallback == "task-timeout"
        # the fallback must not wait for the sleeping workers to finish
        assert time.perf_counter() - started < 1.4


class TestStreams:
    def test_streams_reproducible_and_pinned(self):
        assert stream_seeds(7, "lbl", 3) == [
            453343484152982461,
            7235989136844980684,
            16015684504220386355,
        ]

    def test_streams_independent_of_consumption(self):
        a, b = spawn_streams(3, "s", 2), spawn_streams(3, "s", 2)
        a[0].random()  # consuming stream 0 must not disturb stream 1
        assert a[1].random() == b[1].random()

    def test_prefix_property(self):
        # the first k streams of a larger fan-out equal a smaller fan-out's
        assert stream_seeds(9, "x", 3) == stream_seeds(9, "x", 5)[:3]

    def test_distinct_labels_distinct_streams(self):
        assert stream_seeds(9, "x", 4) != stream_seeds(9, "y", 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            stream_seeds(1, "x", -1)


class TestDeterminismAcrossJobs:
    def test_parallel_map_matches_serial(self):
        serial = parallel_map(square, range(40), jobs=1)
        for jobs in (2, 3, 8):
            assert parallel_map(square, range(40), jobs=jobs) == serial


class TestStopwatch:
    """The sanctioned timing helper (the only DET002-allowed clock reads)."""

    def test_elapsed_nonnegative_and_monotone(self):
        watch = Stopwatch()
        first = watch.elapsed()
        time.sleep(0.01)
        second = watch.elapsed()
        assert 0.0 <= first <= second
        assert second >= 0.01

    def test_cpu_elapsed_nonnegative(self):
        watch = Stopwatch()
        sum(x * x for x in range(10000))
        assert watch.cpu_elapsed() >= 0.0

    def test_exceeded_budget(self):
        watch = Stopwatch()
        assert watch.exceeded(0.0)  # any elapsed time exceeds a zero budget
        assert not watch.exceeded(3600.0)

    def test_run_stats_still_timed_via_stopwatch(self):
        # regression for the time.*-to-Stopwatch conversion in the executor
        _, stats = parallel_map_with_stats(square, range(8), jobs=1)
        assert stats.wall_seconds >= 0.0
        assert stats.cpu_seconds >= 0.0


class TestRunStatsToDict:
    """The dict form feeds /v1/metrics: keys sorted, serialisation stable."""

    def test_keys_sorted_and_complete(self):
        _, stats = parallel_map_with_stats(square, range(8), jobs=1)
        payload = stats.to_dict()
        assert list(payload) == sorted(payload)
        assert set(payload) == {
            "chunks", "cpu_seconds", "errors", "fallback", "jobs", "mode",
            "peak_rss_bytes", "retries", "tasks", "wall_seconds",
        }

    def test_values_mirror_the_dataclass(self):
        _, stats = parallel_map_with_stats(square, range(8), jobs=1)
        payload = stats.to_dict()
        assert payload["tasks"] == stats.tasks == 8
        assert payload["mode"] == stats.mode
        assert payload["jobs"] == stats.jobs

    def test_serialisation_is_byte_stable(self):
        import json

        _, stats = parallel_map_with_stats(square, range(8), jobs=1)
        once = json.dumps(stats.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        again = json.dumps(stats.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        assert once == again
