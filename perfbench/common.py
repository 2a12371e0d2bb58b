"""Paths, child-process environment, statistics and machine context.

Shared by every file of the benchmark; standard library only. The program
under test is always the ``src/`` tree next to this directory — never an
installed copy — so a checkout without ``src/repro`` fails fast.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

#: k for every workload (the paper's smallest non-trivial anonymity level)
K = 2

#: input sizes per profile; "smoke" runs every workload and check in seconds
PROFILES = {
    "full": {
        "scale_n": 100_000,      # Barabási–Albert vertices per network
        "cli_n": 5_000,          # leaf-heavy vertices per release cycle
        "samples": 3,            # approximate samples per `ksymmetry sample`
        "chain": 3,              # republish commands per release cycle
        "daemon_sizes": (100, 1_000, 3_000),
        "tenants": 4,
    },
    "smoke": {
        "scale_n": 2_000,
        "cli_n": 300,
        "samples": 2,
        "chain": 2,
        "daemon_sizes": (30, 100, 300),
        "tenants": 4,
    },
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program, bad arguments)."""


def require_program() -> None:
    """Put ``src/`` first on the path and check ``repro`` imports from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no program at {SRC}/repro; run from a full checkout")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise SetupError(f"repro imported from {where}, not from {SRC}")


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    The program's own ``src/`` is the whole ``PYTHONPATH``, and ``REPRO_*``
    variables are dropped so the program runs with its defaults (serial).
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONPATH"}
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    return env


def work_dir(label: str) -> str:
    """A fresh work directory for one run, inside the checkout."""
    path = os.path.join(WORK, f"{label}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work_dir(path: str) -> None:
    """Drop one run's files; traced runs' span files stay in WORK."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass


# --------------------------------------------------------------- statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------- machine context


def calibration_seconds() -> float:
    """A fixed pure-Python loop, timed: the machine's speed right now.

    Printed before and after each workload as context, never as a metric:
    when the program and this loop both slow down, the machine did.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0, 0
    values = [int(x) for x in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def emit(result: dict) -> None:
    """The run's result: one JSON object as the last line of stdout."""
    print(json.dumps(result, sort_keys=True), flush=True)
