"""Bitmap-backed flash state: the one queryable view of page/block state.

Historically every layer poked at per-page state through ad-hoc accessors on
:class:`~repro.flash.chip.FlashChip` (``state_of``, ``block_write_point``,
``block_is_full``, the raw ``erase_counts`` list) while the FTL kept its own
parallel ``_valid_count`` list maintained by owner-dict bookkeeping.  That
scattered representation made the pure-python write/GC hot path the
simulator's bottleneck: a single host write performed dozens of bound-method
calls and enum comparisons just to ask "is this page erased" and "where is
this block's write point".

:class:`BlockStateView` centralizes all of it in flat arrays, the idiom of
wiscsee-style simulators and the representation DFTL-class designs assume
for victim selection at scale:

- ``page_states`` — one byte per physical page (``PAGE_ERASED`` /
  ``PAGE_PROGRAMMED`` / ``PAGE_TORN``), the chip's lifecycle bitmap;
- ``valid`` — one byte per page, the FTL's liveness bitmap (a page is valid
  iff some mapping structure owns it);
- ``valid_counts`` — per-block valid-page counts, maintained incrementally
  by the FTL's owner bookkeeping (never recounted on the hot path);
- ``write_points`` — next programmable page index per block (the MLC
  sequential-program rule);
- ``erase_counts`` — per-block erase (wear) counters.

The arrays themselves are the hot-path API: FTL and GC inner loops bind
them to locals and index directly (`C`-speed per-element access, no method
dispatch).  The methods on this class are the *convenience* API for
non-hot-path callers — tests, invariant checks, recovery scans — plus
bulk queries (popcounts, free-block scans) for analysis code.

The view is owned by the chip (``chip.state``); the legacy per-page
accessors on :class:`~repro.flash.chip.FlashChip` survive as
``DeprecationWarning`` shims over this view and will be promoted to errors
in a later PR.
"""

from __future__ import annotations

from repro.flash.geometry import FlashGeometry

# Page lifecycle states, as stored in ``page_states``.  Plain ints, not an
# enum: the hot path compares these millions of times per simulated second
# and enum identity checks cost an attribute load + richer dispatch.
PAGE_ERASED = 0
PAGE_PROGRAMMED = 1
PAGE_TORN = 2

#: Human-readable names indexed by state value (for error messages).
PAGE_STATE_NAMES = ("erased", "programmed", "torn")


class BlockStateView:
    """Flat-array view of all per-page and per-block flash state.

    One instance per chip; the chip mutates the lifecycle arrays inside
    ``program``/``erase``, the FTL mutates the validity arrays inside its
    owner bookkeeping.  Everything else reads.
    """

    __slots__ = (
        "geometry",
        "page_states",
        "valid",
        "valid_counts",
        "write_points",
        "erase_counts",
    )

    def __init__(self, geometry: FlashGeometry) -> None:
        self.geometry = geometry
        total = geometry.total_pages
        blocks = geometry.num_blocks
        self.page_states = bytearray(total)
        self.valid = bytearray(total)
        self.valid_counts: list[int] = [0] * blocks
        self.write_points: list[int] = [0] * blocks
        self.erase_counts: list[int] = [0] * blocks

    # ------------------------------------------------- chip-side mutations

    def program_page(self, ppn: int) -> None:
        """Record one page program (state + write point)."""
        self.page_states[ppn] = PAGE_PROGRAMMED
        block = ppn // self.geometry.pages_per_block
        self.write_points[block] = ppn - block * self.geometry.pages_per_block + 1

    def tear_page(self, ppn: int) -> None:
        """Record a program interrupted by power loss (page left torn)."""
        self.page_states[ppn] = PAGE_TORN
        block = ppn // self.geometry.pages_per_block
        self.write_points[block] = ppn - block * self.geometry.pages_per_block + 1

    def erase_block(self, block: int) -> None:
        """Record one block erase: reset its pages, bump its wear counter."""
        per = self.geometry.pages_per_block
        start = block * per
        self.page_states[start : start + per] = bytes(per)
        self.write_points[block] = 0
        self.erase_counts[block] += 1

    # -------------------------------------------------- FTL-side validity

    def mark_valid(self, ppn: int) -> None:
        """A mapping structure took ownership of ``ppn``."""
        self.valid[ppn] = 1
        self.valid_counts[ppn // self.geometry.pages_per_block] += 1

    def clear_valid(self, ppn: int) -> None:
        """The last mapping reference to ``ppn`` was dropped."""
        self.valid[ppn] = 0
        self.valid_counts[ppn // self.geometry.pages_per_block] -= 1

    def clear_validity(self) -> None:
        """Drop all liveness state (FTL power loss; lifecycle state persists).

        Mutates in place: callers (the FTL's owner bookkeeping, GC's victim
        scan) hold direct references to these arrays, so their identity
        must survive power cycles.
        """
        self.valid[:] = bytes(len(self.valid))
        self.valid_counts[:] = [0] * self.geometry.num_blocks

    def rebuild_validity(self, live_ppns) -> None:
        """Recompute the liveness bitmap from an owner set (recovery)."""
        self.clear_validity()
        valid = self.valid
        counts = self.valid_counts
        per = self.geometry.pages_per_block
        for ppn in live_ppns:
            valid[ppn] = 1
            counts[ppn // per] += 1

    # ------------------------------------------------------- point queries

    def state_of(self, ppn: int) -> int:
        """Lifecycle state of one page (``PAGE_*`` constant)."""
        return self.page_states[ppn]

    def is_erased(self, ppn: int) -> bool:
        return self.page_states[ppn] == PAGE_ERASED

    def is_programmed(self, ppn: int) -> bool:
        return self.page_states[ppn] == PAGE_PROGRAMMED

    def is_torn(self, ppn: int) -> bool:
        return self.page_states[ppn] == PAGE_TORN

    def is_valid(self, ppn: int) -> bool:
        return bool(self.valid[ppn])

    def write_point(self, block: int) -> int:
        """Next programmable page index in ``block`` (sequential rule)."""
        return self.write_points[block]

    def block_is_full(self, block: int) -> bool:
        return self.write_points[block] >= self.geometry.pages_per_block

    def valid_count(self, block: int) -> int:
        return self.valid_counts[block]

    def erase_count(self, block: int) -> int:
        return self.erase_counts[block]

    def valid_ratio(self, block: int) -> float:
        """Valid fraction of ``block``'s pages (GC cost model input)."""
        return self.valid_counts[block] / self.geometry.pages_per_block

    # ------------------------------------------------------- bulk queries
    #
    # ``bytearray.count`` scans at C speed; these are for analysis/verify
    # code that wants whole-device aggregates, not for the per-op hot path.

    def programmed_page_count(self) -> int:
        """Device-wide popcount of programmed pages."""
        return self.page_states.count(PAGE_PROGRAMMED)

    def erased_page_count(self) -> int:
        return self.page_states.count(PAGE_ERASED)

    def torn_page_count(self) -> int:
        return self.page_states.count(PAGE_TORN)

    def valid_page_count(self) -> int:
        """Device-wide popcount of the liveness bitmap."""
        return len(self.valid) - self.valid.count(0)

    def valid_count_per_block(self) -> list[int]:
        """Per-block liveness popcounts recomputed from the bitmap.

        Invariant checks compare this against the incrementally-maintained
        ``valid_counts``; they must always agree.
        """
        per = self.geometry.pages_per_block
        valid = self.valid
        return [
            per - valid.count(0, start, start + per) for start in range(0, len(valid), per)
        ]

    def free_blocks(self) -> list[int]:
        """Blocks with nothing programmed (write point at zero)."""
        return [block for block, wp in enumerate(self.write_points) if wp == 0]

    def written_blocks(self) -> list[int]:
        return [block for block, wp in enumerate(self.write_points) if wp > 0]

    def utilization(self) -> float:
        """Fraction of all physical pages currently valid."""
        return self.valid_page_count() / self.geometry.total_pages

    def wear_spread(self) -> int:
        """Max minus min erase count across blocks (wear-leveling signal)."""
        counts = self.erase_counts
        return max(counts) - min(counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockStateView(programmed={self.programmed_page_count()}, "
            f"valid={self.valid_page_count()}, "
            f"free_blocks={len(self.free_blocks())})"
        )
