"""One counter store: the registry exports the layers' own counters.

Each event is counted once, in its layer's plain counter set; the metrics
registry reads those sets when it exports.  These tests pin what that must
preserve and what it fixed:

- exported ``fs.*`` page writes equal ``FsStats`` (the registry's second
  copy used to miss checkpoint home writes, and ``FsStats`` used to count
  every journal frame twice);
- every file-system page write is exactly one device write command;
- totals stay cumulative across a remount, although the remounted file
  system starts a fresh ``FsStats``;
- the exported counter names are the ones the stack has always exported.
"""

from __future__ import annotations

import pytest

from repro.stack import Mode, open_stack

_GEOMETRY = dict(num_blocks=256, pages_per_block=64)

_FS_PAGE_WRITES = ("data_page_writes", "meta_page_writes", "journal_page_writes")


def _device_writes(stack) -> int:
    counters = stack.device.counters
    return counters.writes + counters.tagged_writes + counters.barrier_writes


def _single_row_commits(stack, commits: int = 120):
    db = stack.open_database("t.db")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    for row in range(commits):
        db.execute("INSERT INTO t VALUES (?, ?)", (row, row))
    return db


def _fsync_loop(stack, writes: int = 200) -> None:
    handle = stack.fs.create("f")
    for index in range(writes):
        handle.write_page(index % 37, ("v", index))
        if index % 5 == 4:
            stack.fs.fsync(handle)


def _run(mode: Mode):
    """Each workload reaches journal checkpoints (their home writes)."""
    if mode.is_database_mode:
        stack = open_stack(mode, metrics=True, journal_pages=32, **_GEOMETRY)
        _single_row_commits(stack)
    else:
        # A small cache makes dirty pages leave through the steal path too.
        stack = open_stack(mode, metrics=True, journal_pages=32, fs_cache_pages=8, **_GEOMETRY)
        _fsync_loop(stack)
    return stack


@pytest.mark.parametrize("mode", [Mode.RBJ, Mode.WAL, Mode.FS_FULL])
def test_exported_fs_page_writes_equal_fs_stats(mode):
    stack = _run(mode)
    registry = stack.obs.registry
    assert registry.counter_value("fs.journal.checkpoints") > 0
    for field in _FS_PAGE_WRITES:
        assert registry.counter_value(f"fs.{field}") == getattr(stack.fs.stats, field), field


@pytest.mark.parametrize("mode", [Mode.RBJ, Mode.WAL, Mode.XFTL, Mode.FS_FULL, Mode.FS_ORDERED])
def test_every_fs_page_write_is_one_device_write(mode):
    stack = open_stack(mode, journal_pages=32, fs_cache_pages=8, **_GEOMETRY)
    fs_before = stack.fs.stats.snapshot()
    device_before = _device_writes(stack)
    if mode.is_database_mode:
        _single_row_commits(stack)
    else:
        _fsync_loop(stack)
    fs_delta = stack.fs.stats.delta(fs_before)
    assert sum(getattr(fs_delta, field) for field in _FS_PAGE_WRITES) == (
        _device_writes(stack) - device_before
    )


def test_totals_stay_cumulative_across_remount():
    stack = open_stack(Mode.RBJ, metrics=True, **_GEOMETRY)
    _single_row_commits(stack, commits=40)
    registry = stack.obs.registry
    names = [name for name in registry.counters() if name.startswith("fs.")]
    before = {name: registry.counter_value(name) for name in names}
    old_stats = stack.fs.stats

    stack.remount_after_crash()
    assert stack.fs.stats is not old_stats
    db = stack.open_database("t.db")
    for row in range(10):
        db.execute("UPDATE t SET v = ? WHERE id = ?", (row + 100, row))

    fresh = {f"fs.{field}": value for field, value in stack.fs.stats.as_dict().items()}
    fresh.update(
        {f"fs.cache.{field}": value for field, value in stack.fs.cache.stats.as_dict().items()}
    )
    fresh.update(
        {
            "fs.journal.commits": stack.fs.journal.stats.commits,
            "fs.journal.checkpoints": stack.fs.journal.stats.checkpoints,
        }
    )
    assert set(fresh) <= set(names)
    for name in names:
        assert registry.counter_value(name) == before[name] + fresh.get(name, 0), name
    assert registry.counter_value("fs.fsync_calls") > stack.fs.stats.fsync_calls > 0


_COMMON_NAMES = {
    "dev.aborts", "dev.barrier_writes", "dev.barriers", "dev.commits", "dev.flushes",
    "dev.queue.barrier_stalls", "dev.queue.stalls_avoided", "dev.reads", "dev.tagged_reads",
    "dev.tagged_writes", "dev.trims", "dev.writes",
    "flash.block_erases", "flash.page_programs", "flash.page_reads", "flash.torn_programs",
    "fs.cache.dirty_evictions", "fs.cache.evictions", "fs.cache.hits", "fs.cache.misses",
    "fs.data_page_writes", "fs.file_creates", "fs.file_deletes", "fs.fsync_calls",
    "fs.journal_page_writes", "fs.meta_page_writes", "fs.steal_writes",
    "ftl.barriers", "ftl.gc.copyback_reads", "ftl.gc.copyback_writes", "ftl.gc.fifo_fallbacks",
    "ftl.gc.invocations", "ftl.gc.translation_collections", "ftl.host_page_reads",
    "ftl.host_page_writes", "ftl.map_page_writes",
    "sqlite.page_writes", "sqlite.spilled_pages", "sqlite.statements", "sqlite.txn_commits",
    "sqlite.txn_rollbacks", "sqlite.wal_checkpoints",
    "tenant.shared.commits", "tenant.shared.flushes", "tenant.shared.gc_copybacks",
    "tenant.shared.gc_cross_collisions", "tenant.shared.writes",
}

_EXPECTED_NAMES = {
    Mode.XFTL: _COMMON_NAMES | {
        "ftl.aborts", "ftl.commits", "ftl.group_commits", "ftl.mvcc.asof_reads",
        "ftl.mvcc.version_publishes", "ftl.mvcc.version_releases", "ftl.xl2p.flushes",
        "ftl.xl2p.page_writes", "txn.begins", "txn.releases", "txn.snapshot_pins",
    },
    Mode.RBJ: _COMMON_NAMES | {"fs.journal.checkpoints", "fs.journal.commits"},
    Mode.WAL: _COMMON_NAMES | {"fs.journal.checkpoints", "fs.journal.commits"},
}


@pytest.mark.parametrize("mode", [Mode.XFTL, Mode.RBJ, Mode.WAL])
def test_exported_counter_names_are_unchanged(mode):
    stack = open_stack(mode, metrics=True, **_GEOMETRY)
    _single_row_commits(stack, commits=5)
    assert set(stack.obs.registry.counters()) == _EXPECTED_NAMES[mode]
