"""Field-drift regression for the layers' plain counter sets.

``FlashStats``, ``DeviceCounters``, ``FsStats`` and the smaller per-layer
sets share one ``snapshot()``/``delta()``/``as_dict()`` implementation
(:class:`repro.obs.CounterSet`) driven by ``dataclasses.fields()``.  A
hand-maintained field list historically risked silently missing counters
added later; these tests pin the property by exercising *every* field of
every class with a distinct value, so reintroducing an explicit list that
misses one field fails immediately.
"""

from dataclasses import fields

from repro.device.commands import DeviceCounters
from repro.device.queue import QueueStats
from repro.flash.stats import FlashStats
from repro.fs.ext4 import FsStats
from repro.fs.journal import JournalStats
from repro.fs.pagecache import CacheStats
from repro.sqlite.database import ConnectionStats
from repro.stack.session import SessionStats

COUNTER_SETS = (
    FlashStats,
    DeviceCounters,
    FsStats,
    CacheStats,
    JournalStats,
    QueueStats,
    SessionStats,
    ConnectionStats,
)

# Distinct nonzero primes per field position: any copied/diffed field that
# is dropped or crossed with another shows up as an exact-value mismatch.
_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
]


def _distinct(cls):
    stats = cls()
    for i, f in enumerate(fields(cls)):
        setattr(stats, f.name, _PRIMES[i])
    return stats


def test_enough_probe_values():
    for cls in COUNTER_SETS:
        assert len(fields(cls)) <= len(_PRIMES), cls.__name__


def test_snapshot_copies_every_field():
    for cls in COUNTER_SETS:
        stats = _distinct(cls)
        snap = stats.snapshot()
        assert snap == stats, cls.__name__
        assert snap is not stats


def test_snapshot_is_independent():
    for cls in COUNTER_SETS:
        stats = _distinct(cls)
        snap = stats.snapshot()
        for f in fields(cls):
            setattr(stats, f.name, getattr(stats, f.name) + 1000)
        # The snapshot must not move with the live accumulator — for any field.
        for f in fields(cls):
            assert getattr(snap, f.name) == getattr(stats, f.name) - 1000, (cls.__name__, f.name)


def test_delta_covers_every_field():
    for cls in COUNTER_SETS:
        earlier = _distinct(cls)
        later = earlier.snapshot()
        for i, f in enumerate(fields(cls)):
            setattr(later, f.name, getattr(later, f.name) + 10 * (i + 1))
        diff = later.delta(earlier)
        assert type(diff) is cls
        for i, f in enumerate(fields(cls)):
            assert getattr(diff, f.name) == 10 * (i + 1), (cls.__name__, f.name)


def test_as_dict_covers_every_field():
    for cls in COUNTER_SETS:
        stats = _distinct(cls)
        as_dict = stats.as_dict()
        assert set(as_dict) == {f.name for f in fields(cls)}, cls.__name__
        for f in fields(cls):
            assert as_dict[f.name] == getattr(stats, f.name), (cls.__name__, f.name)
