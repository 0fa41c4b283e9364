"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_run_passes_its_oracle(name, trace):
    result, report = bench.run(name, seed=3, seconds=0.01, trace=trace, tiny=True)
    assert result["correct"], report
    assert result["failed"] == 0
    assert result["attempted"] == (40 if trace else 20)
    assert all(metric["value"] == metric["value"] for metric in result["metrics"].values())


def _fixed_phase(name, seed):
    workload = WORKLOADS[name](seed, tiny=True)
    workload.setup()
    workload.start_model()
    phase = bench.Phase(workload, 20)
    return phase.fingerprint(), workload.crash_and_recover()


@pytest.mark.parametrize("name", NAMES)
def test_seed_alone_decides_the_simulation(name):
    first = _fixed_phase(name, seed=5)
    assert _fixed_phase(name, seed=5) == first
    assert _fixed_phase(name, seed=6) != first


def _drop_last_acknowledged_update(workload):
    """Run commits, then undo one acknowledged effect in the model only."""
    if workload.name == "tpcc-write":
        while True:
            orders = workload.model["orders"]
            workload.commit()
            if workload.model["orders"] > orders:
                workload.model["orders"] -= 1
                return
    for _ in range(50):
        before = dict(workload.model)
        workload.commit()
        changed = [key for key, value in workload.model.items() if before.get(key) != value]
        if changed:
            key = changed[0]
            if key in before:
                workload.model[key] = before[key]
            else:
                del workload.model[key]
            return
    raise AssertionError("no commit changed the model")


@pytest.mark.parametrize("name", NAMES)
def test_oracle_fails_on_a_dropped_acknowledged_update(name):
    workload = WORKLOADS[name](4, tiny=True)
    workload.setup()
    workload.start_model()
    for _ in range(5):
        workload.commit()
    _drop_last_acknowledged_update(workload)
    workload.crash_and_recover()
    assert workload.check()


def test_tracer_restores_every_entry_point():
    workload = WORKLOADS["tpcc-write"](1, tiny=True)
    workload.setup()
    from perfbench.tracing import LayerTracer, _resolve_classes

    classes = _resolve_classes(workload.stack)
    before = {key: dict(vars(cls)) for key, cls in classes.items()}
    tracer = LayerTracer(workload.stack)
    assert len(tracer._patched) > 30
    tracer.close()
    assert {key: dict(vars(cls)) for key, cls in classes.items()} == before


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
