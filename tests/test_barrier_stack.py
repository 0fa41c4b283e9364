"""Barrier-enabled IO stack: epoch ordering, order-only durability, rival pins.

Covers the barrier device command set (BARRIER_WRITE, the ``barrier``
command, the drain fallback), the epoch scheduler's order-preservation
property under randomized interleavings, the file-system fbarrier /
flush-dedupe paths, the StackConfig knob, and the bit-identity pin:
``barrier_mode=off`` must produce exactly the drain stack, counter for
counter and microsecond for microsecond.
"""

from __future__ import annotations

import random

import pytest

from repro.device.ssd import StorageDevice
from repro.errors import DeviceError
from repro.flash.array import FlashArray
from repro.flash.geometry import FlashGeometry
from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import PageMappingFTL
from repro.ftl.xftl import XFTL
from repro.stack import Mode, StackConfig, build_stack
from repro.workloads.synthetic import SyntheticWorkload

from tests.test_channel_equivalence import state_digest

FTL_CONFIG = FtlConfig(
    overprovision=0.25, map_entries_per_page=32, barrier_meta_pages=1, xl2p_capacity=64
)


def make_device(
    barrier_mode=True, channels=2, queue_depth=4, num_blocks=24, xftl=False
):
    geo = FlashGeometry(
        page_size=512, pages_per_block=8, num_blocks=num_blocks, channels=channels
    )
    chip = FlashArray(geo)
    ftl = XFTL(chip, FTL_CONFIG) if xftl else PageMappingFTL(chip, FTL_CONFIG)
    return StorageDevice(ftl, queue_depth=queue_depth, barrier_mode=barrier_mode)


class TestBarrierDevice:
    def test_write_barrier_requires_barrier_mode(self):
        device = make_device(barrier_mode=False)
        with pytest.raises(DeviceError):
            device.write_barrier(0, ("v", 0))

    def test_barrier_falls_back_to_flush_on_drain_device(self):
        device = make_device(barrier_mode=False)
        device.write(0, ("v", 0))
        device.barrier()
        assert device.counters.flushes == 1
        assert device.counters.barriers == 0
        assert not device.dirty_since_flush

    def test_order_barrier_does_not_wait(self):
        device = make_device()
        for lpn in range(6):
            device.write(lpn, ("v", lpn))
        assert device.queue.in_flight > 0
        device.barrier()
        # Order-only: the host did not join the channel timelines, so the
        # commands it ordered are still in flight.
        assert device.queue.in_flight > 0
        assert device.clock.now_us < device.chip.busy_horizon_us()
        assert device.counters.barriers == 1
        assert device.queue_stats.epochs_closed == 1

    def test_barrier_does_not_clear_dirty_state(self):
        # A later *real* fsync must not be deduped away because an
        # order-only barrier ran in between: barriers order, flushes clear.
        device = make_device()
        device.write(0, ("v", 0))
        device.barrier()
        assert device.dirty_since_flush
        device.flush()
        assert not device.dirty_since_flush

    def test_flush_in_barrier_mode_is_order_only(self):
        device = make_device()
        for lpn in range(6):
            device.write(lpn, ("v", lpn))
        before = device.clock.now_us
        device.flush()
        # The flush still publishes FTL state and clears the dirty flag,
        # but pays no drain stall (FTL-internal drains degrade to order
        # barriers on a barrier chip).
        assert not device.dirty_since_flush
        assert device.queue_stats.barrier_stalls == 0
        assert device.clock.now_us - before < device.chip.busy_horizon_us() - before

    def test_write_barrier_closes_epochs_around_the_page(self):
        device = make_device()
        device.write(0, ("v", 0))
        device.write_barrier(1, ("commit", 1))
        device.write(2, ("v", 2))
        # One epoch closed before the barrier write, one after: earlier
        # writes complete before the page, later writes after it.
        assert device.counters.barrier_writes == 1
        assert device.queue.current_epoch == 2
        assert device.queue_stats.epochs_closed == 2
        device.flush()
        for lpn, want in ((0, ("v", 0)), (1, ("commit", 1)), (2, ("v", 2))):
            assert device.read(lpn) == want

    def test_rival_runs_swap_stalls_for_avoided_stalls(self):
        """The bench acceptance shape, pinned at unit level (channels=4)."""
        results = {}
        for barrier_mode in (False, True):
            device = make_device(
                barrier_mode=barrier_mode, channels=4, queue_depth=4, num_blocks=48
            )
            for round_no in range(8):
                for lpn in range(8):
                    device.write(lpn + 8 * (round_no % 3), ("v", round_no, lpn))
                device.flush()
            results[barrier_mode] = device
        drain, barrier = results[False], results[True]
        assert drain.queue_stats.barrier_stalls > 0
        assert drain.queue_stats.stalls_avoided == 0
        assert barrier.queue_stats.barrier_stalls == 0
        assert barrier.queue_stats.stalls_avoided > 0
        # Order-only durability points commit strictly faster.
        assert barrier.clock.now_us < drain.clock.now_us

    def test_power_loss_resets_ordering_state(self):
        device = make_device()
        for lpn in range(4):
            device.write(lpn, ("v", lpn))
        device.write_barrier(4, ("commit", 4))
        assert device.chip.dispatch_floor_us > 0.0
        assert device.queue.current_epoch > 0
        device.power_off()
        assert device.chip.dispatch_floor_us == 0.0
        assert device.queue.current_epoch == 0
        assert device.queue.epoch_bounds() == []
        device.power_on()
        device.write(0, ("fresh", 0))
        device.flush()
        assert device.read(0) == ("fresh", 0)


class TestEpochOrderProperty:
    """Satellite: randomized order preservation across channels.

    Interleave plain writes, barrier writes and order barriers over a
    multi-channel device and check, after every operation, the epoch
    completion envelopes: no command of epoch E may complete before a
    command of any earlier epoch (``min_end(E) >= max_end(E')`` for all
    ``E' < E``).  Since chip/FTL state mutates at dispatch, this timing
    invariant is exactly "no write becomes durable before a write an
    earlier epoch ordered ahead of it" at every possible crash instant.
    """

    SEEDS = 12
    OPS = 80

    @staticmethod
    def _check_envelopes(queue) -> None:
        bounds = queue.epoch_bounds()
        for (e1, _lo1, hi1), (e2, lo2, _hi2) in zip(bounds, bounds[1:]):
            assert lo2 >= hi1, (
                f"epoch {e2} has a completion at {lo2} before epoch {e1} "
                f"finished at {hi1}"
            )

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_random_interleavings_preserve_epoch_order(self, seed):
        rng = random.Random(seed)
        channels = rng.choice((2, 4))
        device = make_device(
            channels=channels,
            queue_depth=rng.choice((2, 4, 8)),
            num_blocks=48,
        )
        exported = device.exported_pages
        expected: dict[int, tuple] = {}
        for op in range(self.OPS):
            lpn = rng.randrange(exported)
            data = ("v", seed, op)
            roll = rng.random()
            if roll < 0.65:
                device.write(lpn, data)
                expected[lpn] = data
            elif roll < 0.80:
                device.write_barrier(lpn, data)
                expected[lpn] = data
            elif roll < 0.95:
                device.barrier()
            else:
                device.flush()
            self._check_envelopes(device.queue)
        device.flush()
        self._check_envelopes(device.queue)
        for lpn, data in expected.items():
            assert device.read(lpn) == data


class TestFlushDedupe:
    """Satellite: the directory-fsync path must not flush a clean device."""

    _STACK = dict(
        num_blocks=96,
        pages_per_block=16,
        page_size=1024,
        journal_pages=32,
        fs_cache_pages=64,
        max_inodes=8,
    )

    def _fs_stack(self):
        return build_stack(StackConfig(mode=Mode.FS_ORDERED, **self._STACK))

    def test_clean_metadata_sync_skips_the_flush(self):
        stack = self._fs_stack()
        fs = stack.fs
        handle = fs.create("app.db")
        handle.write_page(0, b"x" * 64)
        fs.fsync(handle)  # journals the create + makes the data durable
        flushes = stack.device.counters.flushes
        # Nothing dirty anywhere: the durability point is already
        # satisfied, so a directory-style metadata sync must be free.
        fs.sync_metadata()
        assert stack.device.counters.flushes == flushes

    def test_dirty_device_metadata_sync_still_flushes(self):
        stack = self._fs_stack()
        fs = stack.fs
        handle = fs.create("app.db")
        handle.write_page(0, b"y" * 64)
        fs.fsync(handle)  # journals the create + allocation
        # Rewriting an allocated page dirties no metadata, so the later
        # metadata sync finds a dirty device and must pay a real flush.
        handle.write_page(0, b"z" * 64)
        for lpn, data in fs._drain_dirty_data(handle.inode.ino):
            fs._device_write_data(lpn, data)
        assert stack.device.dirty_since_flush
        flushes = stack.device.counters.flushes
        fs.sync_metadata()
        assert stack.device.counters.flushes == flushes + 1

    def test_clean_file_fsync_adds_no_flush(self):
        """The double-flush regression: fsync of an already-durable file.

        Before the dedupe, ``_journal_metadata`` with nothing to journal
        issued an unconditional ``device.flush()`` even when no write had
        landed since the last one — the redundant durability point the
        pager's journal-sync path paid on every commit.
        """
        stack = self._fs_stack()
        fs = stack.fs
        handle = fs.create("app.db")
        handle.write_page(0, b"x" * 64)
        fs.fsync(handle)
        flushes = stack.device.counters.flushes
        fs.fsync(handle)  # nothing dirty anywhere: must be flush-free
        assert stack.device.counters.flushes == flushes


class TestStackKnob:
    def test_barrier_enabled_coercions(self):
        for off in (None, False, "off", "drain", "0", "false", "no", ""):
            assert StackConfig(barrier_mode=off).barrier_enabled() is False, off
        for on in (True, "barrier", "on", "1", "true", "yes"):
            assert StackConfig(barrier_mode=on).barrier_enabled() is True, on
        with pytest.raises(ValueError):
            StackConfig(barrier_mode="sometimes").barrier_enabled()

    def test_build_stack_wires_the_device_and_connection(self):
        stack = build_stack(
            StackConfig(
                mode=Mode.RBJ,
                barrier_mode="barrier",
                channels=2,
                queue_depth=4,
                **TestFlushDedupe._STACK,
            )
        )
        assert stack.device.barrier_mode
        db = stack.open_database("test.db")
        assert db.barrier_mode
        drain = build_stack(StackConfig(mode=Mode.RBJ, **TestFlushDedupe._STACK))
        assert not drain.device.barrier_mode
        assert not drain.open_database("test.db").barrier_mode


class TestBarrierSqlite:
    """The pager's commit path on a barrier device: works, and stalls less."""

    _STACK = dict(
        num_blocks=160,
        pages_per_block=32,
        page_size=4096,
        journal_pages=64,
        fs_cache_pages=256,
        max_inodes=16,
        channels=4,
        queue_depth=4,
    )

    def _run(self, mode: Mode, barrier_mode):
        stack = build_stack(
            StackConfig(mode=mode, barrier_mode=barrier_mode, **self._STACK)
        )
        db = stack.open_database("test.db")
        workload = SyntheticWorkload(db, rows=120)
        workload.load()
        workload.run(transactions=8, updates_per_txn=3)
        return stack, db

    @pytest.mark.parametrize("mode", (Mode.RBJ, Mode.WAL, Mode.XFTL))
    def test_commits_survive_and_stall_less(self, mode):
        drain_stack, drain_db = self._run(mode, "drain")
        barrier_stack, barrier_db = self._run(mode, "barrier")
        # Same data committed either way.
        query = (
            "SELECT ps_id, ps_availqty, ps_supplycost FROM partsupply ORDER BY ps_id"
        )
        assert drain_db.execute(query) == barrier_db.execute(query)
        # The barrier run never paid a drain stall on the commit path.
        assert barrier_stack.device.queue_stats.barrier_stalls == 0
        assert barrier_stack.device.queue_stats.stalls_avoided > 0
        assert drain_stack.device.queue_stats.stalls_avoided == 0
        assert barrier_stack.clock.now_us <= drain_stack.clock.now_us


class TestBarrierOffPin:
    """Satellite: ``barrier_mode=off`` is bit-identical to the drain stack.

    Same-run A/B (the tenant-equivalence idiom): build the default stack
    and the explicit-off stack in one process, run the identical workload,
    and require every counter, the exact simulated time, and the final
    flash-state digest to match.  Pinned on both the serial seed shape
    (channels=1, depth=1) and an NCQ shape (channels=2, depth=4).
    """

    _STACK = dict(
        num_blocks=160,
        pages_per_block=32,
        page_size=4096,
        journal_pages=64,
        fs_cache_pages=256,
        max_inodes=16,
    )

    def _capture(self, stack) -> dict:
        return {
            "flash_stats": stack.chip.stats.as_dict(),
            "device_counters": stack.device.counters.as_dict(),
            "elapsed_us": stack.clock.now_us,
            "state_digest": state_digest(stack.chip),
        }

    def _run(self, mode: Mode, barrier_mode, channels: int, queue_depth: int) -> dict:
        stack = build_stack(
            StackConfig(
                mode=mode,
                barrier_mode=barrier_mode,
                channels=channels,
                queue_depth=queue_depth,
                **self._STACK,
            )
        )
        db = stack.open_database("test.db")
        workload = SyntheticWorkload(db, rows=150)
        workload.load()
        workload.run(transactions=8, updates_per_txn=3)
        return self._capture(stack)

    @pytest.mark.parametrize("mode", (Mode.RBJ, Mode.XFTL))
    @pytest.mark.parametrize("channels,queue_depth", ((1, 1), (2, 4)))
    def test_off_is_bit_identical_to_default(self, mode, channels, queue_depth):
        default = self._run(mode, None, channels, queue_depth)
        for off in ("off", "drain", False):
            assert self._run(mode, off, channels, queue_depth) == default, off
