"""Raw NAND flash chip model.

Enforces the physical rules that make copy-on-write FTLs necessary:

- a page can only be programmed when erased (no overwrite in place);
- pages within a block must be programmed in sequential order (a requirement
  of MLC NAND and the reason FTLs append into "active" blocks);
- erasure happens at block granularity and wears the block.

Every page carries a small out-of-band (OOB) area, used by FTLs to store the
logical page number and other recovery metadata, mirroring how real FTLs
rebuild mapping state after power loss.

Latency for each operation is charged to the shared simulation clock, and a
:class:`~repro.sim.crash.CrashPlan` can cut power before/after a program or
erase — optionally leaving the in-flight page *torn* (detectable garbage),
which models the non-atomic sector write SQLite worries about (§2.1).

Page/block state lives in the chip's :class:`~repro.flash.state.BlockStateView`
(``chip.state``) — flat bytearray/array state maps shared with the FTL's
validity bookkeeping.  The legacy per-page accessors (``state_of``,
``is_torn``, ``block_write_point``, ``block_is_full``, the ``erase_counts``
list) spent one release as DeprecationWarning shims and are now removed;
touching them raises with a pointer at ``chip.state``.

The chip also carries the device's :class:`~repro.tenancy.TenantRegistry`
(``chip.tenants``), inert until a tenant registers — the same
ride-on-the-chip placement as the clock, crash plan and obs handle.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import CorruptionError, FlashError, PowerFailure
from repro.flash.geometry import FlashGeometry
from repro.flash.state import (
    PAGE_ERASED,
    PAGE_PROGRAMMED,
    PAGE_STATE_NAMES,
    PAGE_TORN,
    BlockStateView,
)
from repro.flash.stats import FlashStats
from repro.obs import NULL_OBS, Observability
from repro.sim.clock import SimClock
from repro.sim.crash import NO_CRASH, CrashPlan, register_crash_point
from repro.sim.latency import OPENSSD_PROFILE, LatencyProfile
from repro.tenancy import TenantRegistry

CP_PROGRAM_BEFORE = register_crash_point(
    "flash.program.before", "flash.chip", "before a NAND page program starts"
)
CP_PROGRAM_MID = register_crash_point(
    "flash.program.mid",
    "flash.chip",
    "mid NAND page program; with tear_page the page is left torn",
    tearable=True,
)
CP_PROGRAM_AFTER = register_crash_point(
    "flash.program.after", "flash.chip", "after a NAND page program completed"
)
CP_ERASE_BEFORE = register_crash_point(
    "flash.erase.before", "flash.chip", "before a block erase"
)


class PageState(enum.Enum):
    """Lifecycle of one physical page (legacy enum view of ``PAGE_*``)."""

    ERASED = "erased"
    PROGRAMMED = "programmed"
    TORN = "torn"


#: Pre-BlockStateView accessors, removed after their DeprecationWarning
#: release (same lifecycle as the deleted ``repro.bench.runner`` module).
#: ``FlashChip.__getattr__`` turns them into errors with a pointer.
_REMOVED_STATE_ACCESSORS = {
    "state_of": "chip.state.page_states[ppn]",
    "is_torn": "chip.state.is_torn(ppn)",
    "block_write_point": "chip.state.write_points[block]",
    "block_is_full": "chip.state.block_is_full(block)",
    "erase_counts": "chip.state.erase_counts",
}


class OverlapRegion:
    """Handle for one ``chip.overlap()`` region.

    While the region is active, flash operations on a
    :class:`~repro.flash.array.FlashArray` reserve channel time without
    blocking the clock; :attr:`end_us` tracks the latest completion of any
    reservation made inside the region (the command's finish time).  On the
    serial base chip the region is inert and ``end_us`` just mirrors the
    clock.  Regions nest: an inner region's reservations also extend every
    enclosing region's horizon.
    """

    __slots__ = ("_array", "end_us")

    def __init__(self, array) -> None:
        self._array = array
        self.end_us = 0.0

    def note(self, end_us: float) -> None:
        if end_us > self.end_us:
            self.end_us = end_us

    def __enter__(self) -> "OverlapRegion":
        if self._array is not None:
            self._array._enter_region(self)
        else:
            self.end_us = 0.0
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._array is not None:
            self._array._exit_region(self)


class FlashChip:
    """One simulated NAND chip.

    Content is stored per physical page as ``bytes`` (or any immutable
    object; FTL metadata pages store tuples).  The chip knows nothing about
    logical addresses, validity or mapping — that is the FTL's job (though
    the FTL's liveness bitmap rides on ``chip.state`` so all per-page state
    shares one representation).
    """

    def __init__(
        self,
        geometry: FlashGeometry | None = None,
        clock: SimClock | None = None,
        profile: LatencyProfile = OPENSSD_PROFILE,
        crash_plan: CrashPlan | None = None,
        stats: FlashStats | None = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.geometry = geometry or FlashGeometry()
        self.clock = clock or SimClock()
        self.profile = profile
        self.crash_plan = crash_plan if crash_plan is not None else NO_CRASH
        self.stats = stats or FlashStats()
        # The obs handle rides on the chip (like clock and crash plan) and
        # every higher layer picks it up from the layer below.
        self.obs = obs
        # So does the tenant registry; inert until a tenant registers.
        self.tenants = TenantRegistry(obs)
        obs.bind(
            self.stats,
            {
                "flash.page_reads": "page_reads",
                "flash.page_programs": "page_programs",
                "flash.block_erases": "block_erases",
            },
        )
        self._obs_torn = obs.counter("flash.torn_programs")
        self._tracer = obs.tracer

        self.state = BlockStateView(self.geometry)
        total = self.geometry.total_pages
        self._data: list[Any] = [None] * total
        self._oob: list[Any] = [None] * total
        # Hot-path constants (avoid geometry attribute chains per op).
        self._total_pages = total
        self._pages_per_block = self.geometry.pages_per_block
        # Reusable erase images (slice-assigned per erase, copied by the
        # slice assignment itself, so sharing them is safe).
        self._none_block: list[Any] = [None] * self._pages_per_block

    # ----------------------------------------------------------- parallelism
    #
    # The base chip is strictly serial: every operation advances the global
    # clock by its full latency, and the overlap/drain hooks are no-ops.
    # :class:`~repro.flash.array.FlashArray` overrides these to reserve time
    # on per-channel resource timelines instead.

    #: Whether deferred (overlapping) charging is meaningful on this chip.
    supports_overlap = False

    #: When True, :meth:`drain` degrades to :meth:`order_barrier` — the
    #: barrier-enabled device sets this so FTL-internal drains keep their
    #: ordering meaning without stalling the host clock.
    order_only_drains = False

    #: Earliest start time for new reservations (an order barrier raises it
    #: to the current horizon).  Class attribute so power-loss resets can
    #: assign it unconditionally; :class:`FlashArray` shadows it per device.
    dispatch_floor_us = 0.0

    @property
    def num_channels(self) -> int:
        """Channels this chip can overlap across (1: strictly serial)."""
        return 1

    def _charge_flash(self, duration_us: float, block: int) -> None:
        """Charge one flash-array operation's time.  Serial: advance the clock."""
        self.clock.advance(duration_us)

    def overlap(self) -> "OverlapRegion":
        """Context manager for a region whose flash ops may overlap.

        On the serial base chip this is inert — operations inside still
        advance the clock one after another — so FTL code can bracket its
        fan-out sections unconditionally.
        """
        return OverlapRegion(None)

    def drain(self) -> None:
        """Cross-channel barrier: wait until all channels are idle (no-op here)."""

    def order_barrier(self) -> None:
        """Order-only barrier: later operations may not start (or complete)
        before anything already issued.  The serial chip executes strictly
        in issue order, so ordering is free — no clock effect.
        """

    def channel_backlog_us(self, channel: int = 0) -> float:
        """Reserved-but-unelapsed work on ``channel``.

        The serial chip charges every operation to the clock immediately, so
        it never accumulates backlog; :class:`~repro.flash.array.FlashArray`
        overrides this with the owning timeline's true backlog.  Background
        GC treats a channel with backlog at most
        ``FtlConfig.gc_idle_backlog_us`` as an idle window.
        """
        return 0.0

    # ------------------------------------------------------------------ ops

    def program(self, ppn: int, data: Any, oob: Any = None) -> None:
        """Program one page.

        Raises :class:`FlashError` if the page is not erased or violates the
        in-block sequential-program rule.  Charges program latency.  If the
        crash plan fires *during* the program with ``tear_page`` set, the
        page is left in ``TORN`` state.
        """
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        st = self.state
        state = st.page_states[ppn]
        if state != PAGE_ERASED:
            raise FlashError(
                f"program of non-erased page ppn={ppn} ({PAGE_STATE_NAMES[state]})"
            )
        per = self._pages_per_block
        block = ppn // per
        index = ppn - block * per
        write_points = st.write_points
        if index != write_points[block]:
            raise FlashError(
                f"out-of-order program in block {block}: page index {index}, "
                f"expected {write_points[block]}"
            )

        crash_plan = self.crash_plan
        if crash_plan._points:
            crash_plan.hit(CP_PROGRAM_BEFORE)
            fired = crash_plan.countdown(CP_PROGRAM_MID)
            if fired is not None and fired.tear_page:
                # Power fails mid-program: the page is neither erased nor valid.
                st.page_states[ppn] = PAGE_TORN
                self._data[ppn] = None
                self._oob[ppn] = None
                write_points[block] = index + 1
                self.stats.page_programs += 1
                self._obs_torn.inc()
                raise PowerFailure(f"power lost mid-program of ppn={ppn} (page torn)")
            if fired is not None:
                raise PowerFailure(f"power lost before program of ppn={ppn}")

        self._data[ppn] = data
        self._oob[ppn] = oob
        st.page_states[ppn] = PAGE_PROGRAMMED
        write_points[block] = index + 1
        self.stats.page_programs += 1
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span("program", "flash"):
                self._charge_flash(self.profile.page_program_us, block)
        else:
            self._charge_flash(self.profile.page_program_us, block)
        if crash_plan._points:
            crash_plan.hit(CP_PROGRAM_AFTER)

    def read(self, ppn: int) -> Any:
        """Read one page's data area.  Torn pages raise CorruptionError."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        state = self.state.page_states[ppn]
        if state != PAGE_PROGRAMMED:
            if state == PAGE_TORN:
                raise CorruptionError(f"read of torn page ppn={ppn}")
            raise FlashError(f"read of erased page ppn={ppn}")
        self.stats.page_reads += 1
        self._charge_flash(self.profile.page_read_us, ppn // self._pages_per_block)
        return self._data[ppn]

    def read_oob(self, ppn: int) -> Any:
        """Read one page's out-of-band area (no extra latency: piggybacked)."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        if self.state.page_states[ppn] != PAGE_PROGRAMMED:
            return None
        return self._oob[ppn]

    def erase(self, block: int) -> None:
        """Erase one block, resetting all its pages and its write point."""
        self.geometry.check_block(block)
        crash_plan = self.crash_plan
        if crash_plan._points:
            crash_plan.hit(CP_ERASE_BEFORE)
        per = self._pages_per_block
        start = block * per
        end = start + per
        self._data[start:end] = self._none_block
        self._oob[start:end] = self._none_block
        self.state.erase_block(block)
        self.stats.block_erases += 1
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span("erase", "flash"):
                self._charge_flash(self.profile.block_erase_us, block)
        else:
            self._charge_flash(self.profile.block_erase_us, block)

    # --------------------------------------------- removed state accessors
    #
    # The pre-BlockStateView per-page API spent one release as
    # DeprecationWarning shims; it is now gone for good (the bench.runner
    # precedent).  __getattr__ only runs for *missing* attributes, so the
    # tombstone costs nothing on the hot path.

    def __getattr__(self, name: str):
        replacement = _REMOVED_STATE_ACCESSORS.get(name)
        if replacement is not None:
            raise AttributeError(
                f"FlashChip.{name} was removed; query chip.state "
                f"(BlockStateView) instead: {replacement}"
            )
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ---------------------------------------------------------- inspection

    def peek(self, ppn: int) -> Any:
        """Read without latency or statistics — for tests and recovery scans.

        Recovery-time full-device scans use :meth:`read`/:meth:`read_oob`;
        ``peek`` exists so assertions in tests do not perturb counters.
        """
        self.geometry.check_ppn(ppn)
        return self._data[ppn]
