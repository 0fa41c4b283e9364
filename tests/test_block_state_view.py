"""BlockStateView: unit tests plus a randomized agreement property.

The flat-array state view is the one queryable representation of page and
block state (the old per-page accessors are deprecated shims over it), so
its bookkeeping is checked here against the dumbest possible oracle: plain
dicts and sets mutated by the same operation stream.  The randomized
sequences mix programs, validity flips, tears, erases and power cycles —
the same op mix the FTL/GC hot path performs — and the oracle comparison
covers both the raw arrays and every bulk query.
"""

from __future__ import annotations

import pytest

from repro.flash.geometry import FlashGeometry
from repro.flash.state import (
    PAGE_ERASED,
    PAGE_PROGRAMMED,
    PAGE_TORN,
    BlockStateView,
)
from repro.sim.rng import make_rng


class NaiveStateOracle:
    """Dict/set reference model of everything BlockStateView tracks."""

    def __init__(self, geometry: FlashGeometry) -> None:
        self.geometry = geometry
        self.states: dict[int, int] = {}  # ppn -> PAGE_*; absent = erased
        self.valid: set[int] = set()
        self.write_points: dict[int, int] = {}
        self.erase_counts: dict[int, int] = {}

    def program(self, ppn: int) -> None:
        self.states[ppn] = PAGE_PROGRAMMED
        block = ppn // self.geometry.pages_per_block
        self.write_points[block] = ppn % self.geometry.pages_per_block + 1

    def tear(self, ppn: int) -> None:
        self.states[ppn] = PAGE_TORN
        block = ppn // self.geometry.pages_per_block
        self.write_points[block] = ppn % self.geometry.pages_per_block + 1

    def erase(self, block: int) -> None:
        per = self.geometry.pages_per_block
        for ppn in range(block * per, (block + 1) * per):
            self.states.pop(ppn, None)
            self.valid.discard(ppn)
        self.write_points[block] = 0
        self.erase_counts[block] = self.erase_counts.get(block, 0) + 1

    def state_of(self, ppn: int) -> int:
        return self.states.get(ppn, PAGE_ERASED)

    def valid_count(self, block: int) -> int:
        per = self.geometry.pages_per_block
        return sum(1 for ppn in self.valid if ppn // per == block)


def assert_agrees(view: BlockStateView, oracle: NaiveStateOracle) -> None:
    geo = view.geometry
    for ppn in range(geo.total_pages):
        assert view.page_states[ppn] == oracle.state_of(ppn), f"ppn {ppn} state"
        assert bool(view.valid[ppn]) == (ppn in oracle.valid), f"ppn {ppn} validity"
    for block in range(geo.num_blocks):
        assert view.write_points[block] == oracle.write_points.get(block, 0)
        assert view.erase_counts[block] == oracle.erase_counts.get(block, 0)
        assert view.valid_counts[block] == oracle.valid_count(block)
    # Bulk queries against oracle-side recounts.
    states = list(oracle.states.values())
    assert view.programmed_page_count() == states.count(PAGE_PROGRAMMED)
    assert view.torn_page_count() == states.count(PAGE_TORN)
    assert view.erased_page_count() == geo.total_pages - len(oracle.states)
    assert view.valid_page_count() == len(oracle.valid)
    assert list(view.valid_count_per_block()) == [
        oracle.valid_count(block) for block in range(geo.num_blocks)
    ]
    assert view.free_blocks() == [
        block for block in range(geo.num_blocks)
        if not oracle.write_points.get(block, 0)
    ]
    counts = [oracle.erase_counts.get(block, 0) for block in range(geo.num_blocks)]
    assert view.wear_spread() == max(counts) - min(counts)


class TestBlockStateView:
    def test_initial_state_all_erased(self):
        geo = FlashGeometry(page_size=512, pages_per_block=4, num_blocks=3)
        view = BlockStateView(geo)
        assert_agrees(view, NaiveStateOracle(geo))

    def test_program_and_validity_roundtrip(self):
        geo = FlashGeometry(page_size=512, pages_per_block=4, num_blocks=3)
        view = BlockStateView(geo)
        view.program_page(0)
        view.mark_valid(0)
        assert view.is_programmed(0) and view.is_valid(0)
        assert view.valid_counts[0] == 1 and view.write_points[0] == 1
        view.clear_valid(0)
        assert not view.is_valid(0) and view.valid_counts[0] == 0

    def test_erase_resets_pages_and_bumps_wear(self):
        geo = FlashGeometry(page_size=512, pages_per_block=4, num_blocks=3)
        view = BlockStateView(geo)
        for ppn in range(4):
            view.program_page(ppn)
        view.erase_block(0)
        assert view.write_points[0] == 0
        assert view.erase_counts[0] == 1
        assert all(view.page_states[ppn] == PAGE_ERASED for ppn in range(4))

    def test_clear_validity_preserves_array_identity(self):
        # FTL/GC bind the arrays as locals/attributes; a power cycle must
        # reset contents in place, never swap in fresh objects.
        geo = FlashGeometry(page_size=512, pages_per_block=4, num_blocks=3)
        view = BlockStateView(geo)
        valid, counts = view.valid, view.valid_counts
        view.program_page(0)
        view.mark_valid(0)
        view.clear_validity()
        assert view.valid is valid and view.valid_counts is counts
        assert view.valid_page_count() == 0 and view.valid_counts[0] == 0
        assert view.page_states[0] == PAGE_PROGRAMMED  # lifecycle persists

    def test_rebuild_validity_from_owner_set(self):
        geo = FlashGeometry(page_size=512, pages_per_block=4, num_blocks=3)
        view = BlockStateView(geo)
        for ppn in (0, 1, 4, 5):
            view.program_page(ppn)
        view.rebuild_validity([1, 4])
        assert view.valid_page_count() == 2
        assert view.valid_counts == [1, 1, 0]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_randomized_mixed_ops_agree_with_naive_oracle(seed: int) -> None:
    """Mixed write/GC/erase sequences: arrays == dict oracle at every probe.

    The op mix mirrors the hot path: sequential programs into partially
    written blocks, validity flips (owner bookkeeping), occasional torn
    programs (crash injection), erases of reclaimed blocks, and the two
    recovery entry points (clear_validity / rebuild_validity).
    """
    geo = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=6)
    view = BlockStateView(geo)
    oracle = NaiveStateOracle(geo)
    rng = make_rng(seed, "test.block_state_view", "mixed-ops")
    per = geo.pages_per_block
    for step in range(600):
        roll = rng.random()
        if roll < 0.45:
            # Program (or rarely tear) the write point of a non-full block.
            candidates = [
                block for block in range(geo.num_blocks)
                if view.write_points[block] < per
            ]
            if candidates:
                block = rng.choice(candidates)
                ppn = block * per + view.write_points[block]
                if rng.random() < 0.05:
                    view.tear_page(ppn)
                    oracle.tear(ppn)
                else:
                    view.program_page(ppn)
                    oracle.program(ppn)
                    if rng.random() < 0.7:
                        view.mark_valid(ppn)
                        oracle.valid.add(ppn)
        elif roll < 0.65:
            # Owner bookkeeping: invalidate a random valid page.
            if oracle.valid:
                ppn = rng.choice(sorted(oracle.valid))
                view.clear_valid(ppn)
                oracle.valid.discard(ppn)
        elif roll < 0.85:
            # GC: erase a written block after dropping its live pages.
            written = [
                block for block in range(geo.num_blocks)
                if view.write_points[block] > 0
            ]
            if written:
                block = rng.choice(written)
                for ppn in range(block * per, (block + 1) * per):
                    if view.valid[ppn]:
                        view.clear_valid(ppn)
                        oracle.valid.discard(ppn)
                view.erase_block(block)
                oracle.erase(block)
        elif roll < 0.95:
            # Power cycle: liveness drops, lifecycle persists.
            view.clear_validity()
            oracle.valid.clear()
        else:
            # Recovery: rebuild liveness from a random owner set.
            programmed = [
                ppn for ppn in range(geo.total_pages)
                if view.page_states[ppn] == PAGE_PROGRAMMED
            ]
            live = [ppn for ppn in programmed if rng.random() < 0.5]
            view.rebuild_validity(live)
            oracle.valid = set(live)
        if step % 40 == 0:
            assert_agrees(view, oracle)
    assert_agrees(view, oracle)
