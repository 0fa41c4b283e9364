"""Regression lock: the scheduler must replay recorded multi-session runs.

Session and tenant scheduling used to run through three separate loops: a
plain round-robin interleaver, the session scheduler wrapping it, and a
tenant-scheduler subclass with its own deficit round-robin copy of the
park/batch logic.  They now share one lane-based loop.  A same-run A/B
(``tests/test_tenant_equivalence.py``) cannot prove the deleted loops'
behaviour once both sides run the same code, so this module pins it:

``tests/data/scheduler_baseline.json`` was recorded by running this
module's scenarios against the code *before* the loops were merged
(commit f694c8f), with ``SessionScheduler(stack, fairness=...)`` mapped
onto the old tenant-scheduler subclass.  Every scenario pins FlashStats,
device counters, exact elapsed simulated time, the flash state digest,
group-commit counts, per-session commits and per-tenant metrics.
Re-record only with a deliberate, explained baseline bump::

    PYTHONPATH=src python -m tests.test_scheduler_baseline --record

Deficit scheduling combined with ``max_group`` is deliberately absent: the
merged loop serves a full batch in place instead of restarting the round,
which fixes a starvation bug (see ``tests/test_tenant_stack.py``).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.sim.rng import make_rng
from repro.stack import Mode, SessionScheduler, StackConfig, build_stack
from repro.workloads.tpcc import MultiTerminalTpccDriver, TpccConfig

from tests.test_channel_equivalence import state_digest

BASELINE_PATH = pathlib.Path(__file__).parent / "data" / "scheduler_baseline.json"

_STACK = dict(
    num_blocks=160,
    pages_per_block=32,
    page_size=4096,
    journal_pages=64,
    fs_cache_pages=256,
    max_inodes=16,
)
_NCQ = dict(queue_depth=4, channels=2)

_N_ROWS = 8
_CACHE_PAGES = 512

# (tenant name, weight, sessions)
_ONE_TENANT = (("t0", 1, 2),)
_THREE_TENANTS = (("hot", 2, 2), ("warm", 1, 2), ("cold", 1, 1))


def _capture(stack, scheduler, sessions) -> dict:
    return {
        "flash_stats": stack.chip.stats.as_dict(),
        "device_counters": stack.device.counters.as_dict(),
        "elapsed_us": stack.clock.now_us,
        "state_digest": state_digest(stack.chip),
        "groups_committed": scheduler.groups_committed,
        "transactions_grouped": scheduler.transactions_grouped,
        "session_commits": {s.name: s.stats.commits for s in sessions},
        "tenants": stack.chip.tenants.as_dict(),
    }


def _terminal(db, scheduler, index: int):
    """Update transactions, switching after every statement.

    The commit parks when group commit staged it; otherwise it ran inline
    and its cost lands in the step, which is what the deficit policy
    charges against the tenant's quantum.
    """
    rng = make_rng(7, "test.scheduler_baseline", index)
    for tid in range(1, 9):
        db.execute("BEGIN")
        for _ in range(rng.randrange(1, 4)):
            row = rng.randrange(1, _N_ROWS + 1)
            db.execute("UPDATE t SET v = ? WHERE id = ?", (tid * 1000 + row, row))
            yield None
        db.execute("COMMIT")
        yield scheduler.commit_token(db)
        yield None


def _seed(db) -> None:
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    db.execute("BEGIN")
    for row in range(1, _N_ROWS + 1):
        db.execute("INSERT INTO t VALUES (?, 0)", (row,))
    db.execute("COMMIT")


def _run_sessions(
    mode: Mode,
    variant: str,
    tenants=_ONE_TENANT,
    group_commit: bool = True,
    max_group: int | None = None,
    **device,
) -> dict:
    """Run the terminals of ``tenants`` through one scheduler variant.

    ``baseline`` uses bare sessions and ``run(tasks)``; ``round-robin``
    and ``deficit`` open real tenants and ``add`` their tasks.  Session
    and file names match across variants.
    """
    stack = build_stack(StackConfig(mode=mode, **device, **_STACK))
    options = dict(group_commit=group_commit, max_group=max_group)
    if variant == "baseline":
        scheduler = SessionScheduler(stack, **options)
    else:
        scheduler = SessionScheduler(stack, fairness=variant, **options)
    sessions, tasks = [], []
    index = 0
    for name, weight, n_sessions in tenants:
        tenant = None if variant == "baseline" else stack.open_tenant(name, weight=weight)
        tenant_tasks = []
        for local in range(n_sessions):
            if tenant is None:
                session = stack.open_session(name=f"{name}.s{local}")
                db = session.open_database(
                    f"{name}/app{local}.db", cache_pages=_CACHE_PAGES
                )
            else:
                session = tenant.open_session()
                db = tenant.open_database(
                    f"app{local}.db", cache_pages=_CACHE_PAGES, session=session
                )
            _seed(db)
            scheduler.prepare(db)
            sessions.append(session)
            tenant_tasks.append(_terminal(db, scheduler, index))
            index += 1
        if tenant is None:
            tasks.extend(tenant_tasks)
        else:
            scheduler.add(tenant, tenant_tasks)
    if variant == "baseline":
        scheduler.run(tasks)
    else:
        scheduler.run()
    return _capture(stack, scheduler, sessions)


def _run_tpcc() -> dict:
    stack = build_stack(StackConfig(mode=Mode.XFTL, num_blocks=256, pages_per_block=64))
    config = TpccConfig(
        warehouses=1, districts_per_warehouse=2, customers_per_district=10,
        items=50, initial_orders_per_district=5,
    )
    driver = MultiTerminalTpccDriver(stack, terminals=3, config=config)
    driver.load()
    result = driver.run("write-intensive", 4)
    captured = _capture(stack, driver.scheduler, driver.sessions)
    captured["per_terminal_commits"] = result.per_terminal_commits
    return captured


SCENARIOS = {
    f"single.{mode.name.lower()}.{variant}": (
        lambda mode=mode, variant=variant: _run_sessions(mode, variant)
    )
    for mode in (Mode.XFTL, Mode.RBJ)
    for variant in ("baseline", "round-robin", "deficit")
}
SCENARIOS.update(
    {
        f"single.xftl.ncq.{variant}": (
            lambda variant=variant: _run_sessions(Mode.XFTL, variant, **_NCQ)
        )
        for variant in ("baseline", "round-robin", "deficit")
    }
)
SCENARIOS.update(
    {
        f"tenants3.{variant}{suffix}": (
            lambda variant=variant, device=device: _run_sessions(
                Mode.XFTL, variant, _THREE_TENANTS, **device
            )
        )
        for variant in ("round-robin", "deficit")
        for suffix, device in (("", {}), (".ncq", _NCQ))
    }
)
SCENARIOS.update(
    {
        f"tenants3.{variant}.inline{suffix}": (
            lambda variant=variant, device=device: _run_sessions(
                Mode.XFTL, variant, _THREE_TENANTS, group_commit=False, **device
            )
        )
        for variant in ("round-robin", "deficit")
        for suffix, device in (("", {}), (".ncq", _NCQ))
    }
)
SCENARIOS.update(
    {
        "sessions5.xftl.baseline.max_group2": lambda: _run_sessions(
            Mode.XFTL, "baseline", _THREE_TENANTS, max_group=2
        ),
        "tenants3.round-robin.max_group2": lambda: _run_sessions(
            Mode.XFTL, "round-robin", _THREE_TENANTS, max_group=2
        ),
        "tpcc.xftl.3terminals": _run_tpcc,
    }
)


def record() -> dict:
    return {name: run() for name, run in SCENARIOS.items()}


@pytest.fixture(scope="module")
def baseline() -> dict:
    if not BASELINE_PATH.exists():  # pragma: no cover - setup error
        pytest.fail(f"baseline file missing: {BASELINE_PATH}")
    return json.loads(BASELINE_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scheduler_matches_recorded_baseline(name: str, baseline: dict) -> None:
    expected = baseline[name]
    actual = SCENARIOS[name]()
    # Counter sets may gain new fields without a baseline bump; every
    # recorded counter must stay identical.
    for key in ("flash_stats", "device_counters"):
        assert {k: actual[key][k] for k in expected[key]} == expected[key], (name, key)
    rest = {k: v for k, v in expected.items() if k not in ("flash_stats", "device_counters")}
    assert {k: actual[k] for k in rest} == rest, name


if __name__ == "__main__":
    import sys

    if "--record" not in sys.argv:
        sys.exit("usage: PYTHONPATH=src python -m tests.test_scheduler_baseline --record")
    BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(SCENARIOS)} scenario baselines to {BASELINE_PATH}")
