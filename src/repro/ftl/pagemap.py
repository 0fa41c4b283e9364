"""Page-mapped FTL with greedy garbage collection.

This models the OpenSSD board's stock firmware (§5.3, §6.1):

- a page-granularity L2P mapping table held in controller DRAM;
- host writes are appended copy-on-write into an *active* block; the old
  physical copy of the logical page becomes invalid;
- when the free-block pool runs low, a greedy garbage collector picks the
  block with the fewest valid pages, copies its valid pages into the active
  block and erases it;
- on a multi-channel chip (:class:`~repro.flash.array.FlashArray`) the FTL
  keeps one active block, free pool and garbage collector *per channel*:
  host writes round-robin across channels so consecutive appends land on
  different channels and overlap, and GC is channel-local (victim and
  copyback target share a channel), so its read->program data dependencies
  serialize naturally on the channel's own timeline.  With one channel all
  of this degenerates to exactly the single-pool behaviour;
- a *write barrier* (the device-level effect of a host fsync / FUA) persists
  all dirty mapping-table chunks plus a fixed set of firmware metadata pages
  to flash.  This is the hidden cost that makes fsync-heavy hosts slow on
  the stock FTL, and the cost that X-FTL's commit command avoids.

Durability model
----------------
Each programmed page carries OOB metadata ``(kind, lpn, seq, tid)``.  A tiny
*root record* — modelling the FTL's reserved meta block, which the paper
assumes is updated atomically — points at the persisted map pages and stores
the sequence number as of the last barrier.  Remounting after power loss
loads the map pages from the root, then scans block OOB areas and replays
committed writes with newer sequence numbers.  Torn pages (power cut mid
program) are detected and skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import CorruptionError, FlashError, FtlError, OutOfSpaceError
from repro.flash.chip import FlashChip
from repro.flash.state import PAGE_PROGRAMMED
from repro.ftl.base import Ftl, FtlConfig
from repro.ftl.cmt import CachedMappingTable
from repro.obs import DEFAULT_SIZE_BOUNDS
from repro.sim.crash import register_crash_point

CP_BARRIER_MID = register_crash_point(
    "ftl.barrier.mid", "ftl.pagemap", "between mapping pages of a barrier flush"
)

# Owner kinds for physical pages (what structure keeps this page alive).
OWNER_L2P = "l2p"
OWNER_MAP = "map"
OWNER_META = "meta"
OWNER_XL2P_DATA = "xl2p"  # uncommitted transactional data (used by XFTL)
OWNER_XL2P_TABLE = "xl2p-table"  # persisted X-L2P table page (used by XFTL)
OWNER_RETIRED = "retired"  # superseded page still pinned by the durable root
OWNER_VERSION = "version"  # superseded committed page retained in a version chain

# OOB tid sentinel for GC-relocated retained versions: a relocated version
# keeps its *original* sequence number (so OOB replay never resurrects it as
# the current copy) and carries this tid, which by construction is never in
# any committed-tid set — recovery identifies version pages only through the
# persisted chains, never through replay.
VERSION_TID = -1

# OOB kinds.
OOB_DATA = "data"
OOB_MAP = "map"
OOB_META = "meta"
OOB_XL2P_TABLE = "xl2p-table"


@dataclass
class RootRecord:
    """The atomically-updated meta-block contents.

    Survives power loss by construction (the paper assumes the meta-block
    pointer update is atomic, §5.3).  Everything else in DRAM is volatile.
    """

    map_dir: dict[int, int] = field(default_factory=dict)  # segment -> ppn
    meta_dir: dict[int, int] = field(default_factory=dict)  # meta slot -> ppn
    seq: int = 0
    # Used by XFTL: physical pages of the persisted X-L2P table, and the set
    # of tids committed since the last full map checkpoint.
    xl2p_ppns: tuple[int, ...] = ()
    committed_tids: frozenset[int] = frozenset()
    # Multi-version X-L2P: the commit sequence counter as of the last root
    # publish.  Stays 0 on the single-version stack (retain_versions=1).
    commit_seq: int = 0

    def clone(self) -> "RootRecord":
        return RootRecord(
            map_dir=dict(self.map_dir),
            meta_dir=dict(self.meta_dir),
            seq=self.seq,
            xl2p_ppns=tuple(self.xl2p_ppns),
            committed_tids=frozenset(self.committed_tids),
            commit_seq=self.commit_seq,
        )


class SegmentedL2P(dict):
    """L2P mapping dict with per-translation-segment key buckets.

    ``_segment_entries`` used to filter the *whole* mapping per translation
    page (``for lpn, ppn in self._l2p.items() if lo <= lpn < hi``) — an
    O(L2P) scan per map flush that dominated barrier cost on aged devices.
    This subclass maintains, transparently at every mutation, an ordered
    key bucket per segment so a segment's entries enumerate in O(segment).

    Bucket order replicates plain-dict semantics exactly: a bucket holds
    its segment's entries in first-insertion order (re-assigning an
    existing lpn keeps its position; pop + re-insert moves it to the end),
    which is precisely the subsequence of ``dict.items()`` order the old
    filter produced — so persisted translation-page images stay
    bit-identical.  Buckets mirror the ppn values too, so a segment's
    image is just ``tuple(bucket.items())`` (one C-level call).

    Only the mutation paths the FTLs use are supported (``d[k] = v``,
    ``pop``, ``del``); the bulk mutators would silently desynchronize the
    buckets and are explicitly disabled.
    """

    __slots__ = ("entries_per_page", "segments")

    def __init__(self, entries_per_page: int) -> None:
        super().__init__()
        self.entries_per_page = entries_per_page
        self.segments: dict[int, dict[int, int]] = {}

    def __setitem__(self, lpn: int, ppn: int) -> None:
        segment = lpn // self.entries_per_page
        bucket = self.segments.get(segment)
        if bucket is None:
            bucket = self.segments[segment] = {}
        bucket[lpn] = ppn
        dict.__setitem__(self, lpn, ppn)

    def __delitem__(self, lpn: int) -> None:
        dict.__delitem__(self, lpn)
        segment = lpn // self.entries_per_page
        bucket = self.segments[segment]
        del bucket[lpn]
        if not bucket:
            del self.segments[segment]

    def pop(self, lpn, *default):
        if lpn in self:
            segment = lpn // self.entries_per_page
            bucket = self.segments[segment]
            del bucket[lpn]
            if not bucket:
                del self.segments[segment]
        return dict.pop(self, lpn, *default)

    def segment_items(self, segment: int) -> tuple:
        """This segment's ``(lpn, ppn)`` entries, in insertion order."""
        bucket = self.segments.get(segment)
        if not bucket:
            return ()
        return tuple(bucket.items())

    def _unsupported(self, *args, **kwargs):
        raise NotImplementedError(
            "bulk mutation would desynchronize SegmentedL2P's segment buckets"
        )

    update = _unsupported
    setdefault = _unsupported
    clear = _unsupported
    popitem = _unsupported
    __ior__ = _unsupported


class PageMappingFTL(Ftl):
    """Stock page-mapped FTL (see module docstring)."""

    def __init__(self, chip: FlashChip, config: FtlConfig | None = None) -> None:
        super().__init__(chip, config)
        geo = chip.geometry
        reserve = max(2, int(geo.num_blocks * self.config.overprovision))
        if geo.num_blocks - reserve < 1:
            raise FtlError("chip too small for overprovisioning reserve")
        self._exported_pages = (geo.num_blocks - reserve) * geo.pages_per_block
        # Power loss propagates from the crash plan: when an armed point
        # fires, the FTL drops its DRAM state without a manual power_fail().
        chip.crash_plan.subscribe(self.power_fail)

        self._powered = True
        # Volatile (DRAM) state.  The L2P map keeps per-segment key buckets
        # so translation-page flushes never scan the whole mapping.
        self._l2p: SegmentedL2P = SegmentedL2P(self.config.map_entries_per_page)
        self._owner: dict[int, tuple] = {}
        # Page/block state lives on the chip's BlockStateView; the FTL
        # aliases the arrays directly (their identity is stable — the view
        # mutates them in place) so hot loops index without dispatch.
        # ``_valid_count`` *is* ``chip.state.valid_counts``: owner
        # bookkeeping maintains it incrementally, GC reads it.
        state_view = chip.state
        self._valid_count: list[int] = state_view.valid_counts
        self._valid_bitmap = state_view.valid
        self._page_states = state_view.page_states
        self._write_points = state_view.write_points
        self._pages_per_block = geo.pages_per_block
        self._num_channels = geo.channels
        self._map_entries_per_page = self.config.map_entries_per_page
        # Space management is striped per channel: each channel has its own
        # free pool, active block and allocation-age order, so appends on
        # different channels never contend.  With channels == 1 this is the
        # single free pool / single active block of the stock firmware.
        self._free_by_channel: list[list[int]] = [
            list(geo.channel_blocks(channel)) for channel in range(geo.channels)
        ]
        self._alloc_order: list[list[int]] = [[] for _ in range(geo.channels)]
        self._active_blocks: list[int | None] = [None] * geo.channels
        self._write_channel = 0  # round-robin cursor for host/map appends
        self._seq = 0
        self._dirty_segments: set[int] = set()
        self._map_dir: dict[int, int] = {}
        self._meta_dir: dict[int, int] = {}
        # Durable root (atomic meta block).
        self._root = RootRecord()
        self._pending_retired: set[int] = set()
        # Victim valid-ratio running aggregate (bounded state: the per-victim
        # samples live in the ftl.gc.victim_valid_pages histogram, not in an
        # ever-growing list).
        self._gc_valid_ratio_sum = 0.0
        self._gc_valid_ratio_count = 0
        self._obs_gc_victim_valid = chip.obs.histogram(
            "ftl.gc.victim_valid_pages", DEFAULT_SIZE_BOUNDS
        )
        self._obs_barrier_us = chip.obs.histogram("ftl.barrier.latency_us")
        chip.obs.bind(
            self.stats, {"ftl.gc.translation_collections": "gc_translation_collections"}
        )
        # Demand-paged mapping (DFTL-style CMT, repro.ftl.cmt).  A capacity
        # of zero — or one covering every translation page of the exported
        # space — degenerates to the all-in-DRAM map: the cache can never
        # miss, so the machinery switches off wholesale and the seed path
        # stays bit-identical (tests/test_cmt_equivalence.py).
        if self.config.cmt_pages < 0:
            raise FtlError(f"cmt_pages must be >= 0, got {self.config.cmt_pages}")
        per_page = self.config.map_entries_per_page
        total_segments = -(-self._exported_pages // per_page)
        if 0 < self.config.cmt_pages < total_segments:
            self._cmt: CachedMappingTable | None = CachedMappingTable(
                self, self.config.cmt_pages, self.config.cmt_dirty_batch
            )
        else:
            self._cmt = None
        # Translation-block stream: with the CMT active, translation pages
        # get their own active block per channel so map and data pages do
        # not interleave (Dayan & Bonnet's translation blocks).
        self._trans_active: list[int | None] = [None] * geo.channels
        self._trans_blocks: set[int] = set()
        # Background GC (FtlConfig.gc_mode="background") owns space
        # management through repro.ftl.gc; the default "inline" mode keeps
        # the seed's stop-the-world collector on this class, bit for bit.
        if self.config.gc_mode == "background":
            from repro.ftl.gc import BackgroundGC  # deferred: gc imports pagemap

            self._gc: "BackgroundGC | None" = BackgroundGC(self)
        elif self.config.gc_mode == "inline":
            if self.config.gc_policy not in ("greedy", "fifo"):
                raise FtlError(
                    f"gc_policy {self.config.gc_policy!r} requires gc_mode='background'; "
                    f"inline GC supports 'greedy' and 'fifo'"
                )
            self._gc = None
        else:
            raise FtlError(
                f"unknown gc_mode {self.config.gc_mode!r}; expected 'inline' or 'background'"
            )

    # ------------------------------------------------------------ interface

    @property
    def exported_pages(self) -> int:
        return self._exported_pages

    @property
    def powered(self) -> bool:
        return self._powered

    def read(self, lpn: int) -> Any:
        self._check_power()
        self._check_lpn(lpn)
        if self._cmt is not None:
            self._cmt.access(lpn // self.config.map_entries_per_page)
        ppn = self._l2p.get(lpn)
        if ppn is None:
            return None  # unwritten logical page reads as zeros
        self.stats.host_page_reads += 1
        return self.chip.read(ppn)

    def write(self, lpn: int, data: Any) -> None:
        # The hottest host-facing path: power/lpn checks, owner bookkeeping
        # and dirty marking are inlined (see _set_owner/_invalidate for the
        # reference semantics — none of these hooks is overridden in-tree).
        if not self._powered:
            raise FtlError("FTL is powered off")
        if not 0 <= lpn < self._exported_pages:
            raise FtlError(f"lpn {lpn} outside exported space (0..{self._exported_pages - 1})")
        if self._cmt is not None:
            # Updating the mapping is a read-modify of its translation
            # page, so residency comes first (may evict/write back).
            self._cmt.access(lpn // self._map_entries_per_page)
        self._seq += 1
        ppn = self._program(data, (OOB_DATA, lpn, self._seq, None))
        owners = self._owner
        per = self._pages_per_block
        old = self._l2p.get(lpn)
        if old is not None and owners.pop(old, None) is not None:
            self._valid_bitmap[old] = 0
            self._valid_count[old // per] -= 1
        self._l2p[lpn] = ppn
        if ppn in owners:
            raise FtlError(f"ppn {ppn} already owned by {owners[ppn]}")
        self._valid_bitmap[ppn] = 1
        self._valid_count[ppn // per] += 1
        owners[ppn] = (OWNER_L2P, lpn)
        self._dirty_segments.add(lpn // self._map_entries_per_page)
        self.stats.host_page_writes += 1

    def trim(self, lpn: int) -> None:
        self._check_power()
        self._check_lpn(lpn)
        if self._cmt is not None:
            self._cmt.access(lpn // self.config.map_entries_per_page)
        old = self._l2p.pop(lpn, None)
        if old is not None:
            self._invalidate(old)
            self._mark_dirty(lpn)

    def barrier(self) -> None:
        """Persist dirty map chunks + firmware metadata (fsync cost center).

        Superseded map/meta pages are *retired* rather than invalidated
        immediately: they stay valid (GC-pinned) until the new root record
        is published, so a crash mid-barrier still finds every page the old
        root references.

        On a multi-channel array the flush fans out: map/meta pages are
        DRAM-sourced, so their programs round-robin across channels inside
        one overlap region, and the root is published only after
        ``chip.drain()`` — the cross-channel ordering point that preserves
        barrier durability semantics.
        """
        self._check_power()
        self.stats.barriers += 1
        start_us = self.chip.clock.now_us
        with self.obs.tracer.span("barrier", "ftl"):
            self.chip.clock.advance(self.chip.profile.barrier_overhead_us)
            # Publish the sequence number as of *before* the flush programs:
            # a GC pass triggered by one of them may relocate data pages,
            # and relocations carry fresh sequence numbers, so a snapshot
            # root.seq keeps them inside the OOB replay window.  (Publishing
            # the post-flush seq would instead require every re-dirtied
            # segment to be rewritten before the publish — an unbounded
            # flush/GC feedback loop on small, GC-pressured devices.)
            seq_snapshot = self._seq
            with self.chip.overlap():
                self._flush_map()
                self._flush_meta()
            self.chip.drain()
            self._publish_root(seq_snapshot)
            for ppn in list(self._pending_retired):
                self._invalidate(ppn)
            self._pending_retired.clear()
        self._obs_barrier_us.observe(self.chip.clock.now_us - start_us)

    # ------------------------------------------------------------- power

    def power_fail(self) -> None:
        """Drop all DRAM state.  The chip (and the root record) persist."""
        geo = self.chip.geometry
        self._powered = False
        self._l2p = SegmentedL2P(self.config.map_entries_per_page)
        self._owner = {}
        self.chip.state.clear_validity()
        self._free_by_channel = [[] for _ in range(geo.channels)]
        self._alloc_order = [[] for _ in range(geo.channels)]
        self._active_blocks = [None] * geo.channels
        self._write_channel = 0
        self._dirty_segments = set()
        self._map_dir = {}
        self._meta_dir = {}
        self._pending_retired = set()
        self._seq = 0
        self._trans_active = [None] * geo.channels
        self._trans_blocks = set()
        if self._cmt is not None:
            self._cmt.reset()
        if self._gc is not None:
            self._gc.reset()

    def remount(self) -> None:
        """Rebuild DRAM state from the root record plus an OOB scan."""
        if self._powered:
            raise FtlError("remount on a powered FTL")
        self._powered = True
        root = self._root
        self._map_dir = dict(root.map_dir)
        self._meta_dir = dict(root.meta_dir)
        self._seq = root.seq

        # 1. Load the persisted map pages.
        self._l2p = SegmentedL2P(self.config.map_entries_per_page)
        self._owner = {}
        for segment, ppn in self._map_dir.items():
            entries = self.chip.read(ppn)
            self._set_owner_raw(ppn, (OWNER_MAP, segment))
            # Entries are (lpn, ppn) pairs; the multi-version XFTL persists
            # (lpn, ppn, chain) triples — the chain tail is restored by the
            # subclass in _finish_remount, after OOB replay settles the
            # current mapping.
            for entry in entries:
                self._l2p[entry[0]] = entry[1]
        for slot, ppn in self._meta_dir.items():
            self._set_owner_raw(ppn, (OWNER_META, slot))
        stale: list[int] = []
        for lpn, ppn in self._l2p.items():
            # A persisted mapping can be stale: its physical page may have
            # been invalidated, erased and reused — possibly for one of the
            # very map/meta pages claimed above (their programs carry
            # sequence numbers past the published root.seq, so they can
            # postdate the stale mapping's correction).  Never let a stale
            # claim displace an established owner; for an overwritten lpn
            # the OOB replay below is guaranteed to carry the fresher
            # mapping.  A *trimmed* lpn has no fresher copy to correct it,
            # so an unowned target is verified against the page itself
            # before claiming — a mapping whose page is erased (or reused
            # under a different identity) is dropped, restoring the
            # trimmed read-as-zeros state instead of claiming dead flash.
            if ppn in self._owner:
                continue
            if self._page_states[ppn] == PAGE_PROGRAMMED:
                # Kind-agnostic identity check: every data OOB layout in the
                # FTL family (OOB_DATA, SCC, WAL, ...) carries the lpn in
                # slot 1, so a programmed page whose OOB names this lpn is a
                # genuine copy of it.
                oob = self.chip.read_oob(ppn)
                if oob is not None and len(oob) >= 2 and oob[1] == lpn:
                    self._set_owner_raw(ppn, (OWNER_L2P, lpn))
                    continue
            stale.append(lpn)
        for lpn in stale:
            self._l2p.pop(lpn, None)
            self._mark_dirty(lpn)

        # 2. Replay newer writes found in OOB areas, in sequence order.
        # Dirty tracking restarts here, *before* the replay: each replayed
        # mapping re-dirties its segment so the next barrier persists it.
        # (Clearing after the replay — the old behaviour — left recovered
        # mappings clean, so a barrier advanced root.seq past their
        # sequence numbers without flushing them and a second crash lost
        # them.)
        self._dirty_segments = set()
        replay = sorted(self._scan_oob(min_seq=root.seq + 1), key=lambda e: e[0])
        for seq, kind, lpn, tid, ppn in replay:
            if seq > self._seq:
                self._seq = seq  # never reuse sequence numbers after a crash
            if kind != OOB_DATA:
                continue
            if not self._replay_applies(tid):
                continue
            self._remap_for_recovery(lpn, ppn)

        self._finish_remount()

        # 3. Rebuild validity counts and the free pool from ownership.
        self._rebuild_space_state()

    def _remap_for_recovery(self, lpn: int, ppn: int) -> None:
        """Point ``lpn`` at ``ppn`` during recovery.

        The previous mapping may be stale — a persisted map chunk can name a
        physical page that was since erased and reused by a *different*
        logical page — so its owner is only dropped when it really belongs
        to this lpn.
        """
        old = self._l2p.get(lpn)
        if old is not None and old != ppn and self._owner.get(old) == (OWNER_L2P, lpn):
            self._drop_owner(old)
        self._l2p[lpn] = ppn
        self._set_owner_raw(ppn, (OWNER_L2P, lpn))
        # The recovered mapping exists only in OOB + DRAM; dirty it so the
        # next barrier persists it (see remount step 2).
        self._mark_dirty(lpn)

    def _replay_applies(self, tid: int | None) -> bool:
        """Whether an OOB data entry with this tid survives recovery.

        The stock FTL has no transactions: only untagged writes exist.
        XFTL overrides this to consult the durable committed-tid set.
        """
        return tid is None

    def _finish_remount(self) -> None:
        """Hook for subclasses (XFTL reloads the X-L2P table here)."""

    # ------------------------------------------------------------ internals

    def _check_power(self) -> None:
        if not self._powered:
            raise FtlError("FTL is powered off")

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self._exported_pages:
            raise FtlError(f"lpn {lpn} outside exported space (0..{self._exported_pages - 1})")

    def _mark_dirty(self, lpn: int) -> None:
        self._dirty_segments.add(lpn // self.config.map_entries_per_page)

    def _set_owner(self, ppn: int, owner: tuple) -> None:
        if ppn in self._owner:
            raise FtlError(f"ppn {ppn} already owned by {self._owner[ppn]}")
        self._set_owner_raw(ppn, owner)

    def _set_owner_raw(self, ppn: int, owner: tuple) -> None:
        owners = self._owner
        if ppn not in owners:
            self._valid_bitmap[ppn] = 1
            self._valid_count[ppn // self._pages_per_block] += 1
        owners[ppn] = owner

    def _drop_owner(self, ppn: int) -> None:
        if self._owner.pop(ppn, None) is not None:
            self._valid_bitmap[ppn] = 0
            self._valid_count[ppn // self._pages_per_block] -= 1

    def _invalidate(self, ppn: int) -> None:
        self._drop_owner(ppn)

    # -------- space management ----------------------------------------

    def _pick_channel(self) -> int:
        """Round-robin channel for the next append (always 0 when serial)."""
        channel = self._write_channel
        self._write_channel = (channel + 1) % self.chip.geometry.channels
        return channel

    def _program(self, data: Any, oob: tuple, channel: int | None = None) -> int:
        """Append one page into a channel's active block, GCing if needed."""
        if channel is None:
            # _pick_channel, inlined (round-robin cursor).
            channel = self._write_channel
            self._write_channel = (channel + 1) % self._num_channels
        if self._gc is not None:
            # Background mode: the collector owns watermarks, hot/cold
            # stream selection and (paced or urgent) collection.
            return self._gc.host_program(data, oob, channel)
        # Keep at least one block's worth of erased pages per channel at all
        # times: any GC victim has at most pages_per_block - 1 valid pages,
        # so as long as a full block of headroom exists *before* each host
        # program, GC can always relocate a victim and make progress.
        # Waiting until the free pool is empty (the old behaviour) let the
        # host consume the copyback headroom page by page and wedge an
        # in-capacity workload.
        if self._gc_headroom_pages(channel) <= self._pages_per_block:
            self._garbage_collect(channel, target_blocks=0)
        if self._trans_stream_wanted(oob):
            block = self._ensure_trans_block(channel)
        else:
            block = self._ensure_active_block(channel)
        per = self._pages_per_block
        write_points = self._write_points
        ppn = block * per + write_points[block]
        self.chip.program(ppn, data, oob)
        if write_points[block] >= per:
            # The trans stream may have degraded to the shared active
            # block, so clear whichever store(s) pointed here.
            if block == self._trans_active[channel]:
                self._trans_active[channel] = None
            if block == self._active_blocks[channel]:
                self._active_blocks[channel] = None
        return ppn

    def _trans_stream_wanted(self, oob: tuple) -> bool:
        """Whether this program belongs in the translation-block stream."""
        return self._cmt is not None and oob[0] == OOB_MAP

    def _ensure_trans_block(self, channel: int) -> int:
        """Active translation block for ``channel``, allocating if needed.

        Dedicating a block to translation pages costs the data stream one
        free block, so under space pressure the stream degrades to the
        shared active block (the same opportunism as the background hot
        stream) rather than starving GC of headroom.
        """
        active = self._trans_active[channel]
        if active is not None and self._write_points[active] < self._pages_per_block:
            return active
        if len(self._free_by_channel[channel]) <= self.config.gc_free_block_threshold:
            self._garbage_collect(channel)
        free = self._free_by_channel[channel]
        if not free or self._gc_headroom_pages(channel) <= 2 * self._pages_per_block:
            return self._ensure_active_block(channel)
        block = free.pop()
        self._trans_active[channel] = block
        self._alloc_order[channel].append(block)
        self._trans_blocks.add(block)
        return block

    def _release_trans_block(self, channel: int) -> bool:
        """Fold the translation stream back into the shared pool.

        Called when GC is starved: the trans active block is excluded from
        victim selection and its erased tail does not count as copyback
        headroom, so under pressure holding onto it can wedge an otherwise
        sustainable workload.  Releasing it makes the block an ordinary
        victim candidate — and, when the cold slot is open, the new active
        block, which returns its erased pages to the headroom pool.
        """
        block = self._trans_active[channel]
        if block is None:
            return False
        self._trans_active[channel] = None
        if (
            self._active_blocks[channel] is None
            and self._write_points[block] < self._pages_per_block
        ):
            self._active_blocks[channel] = block
        return True

    def _ensure_active_block(self, channel: int) -> int:
        active = self._active_blocks[channel]
        if active is not None and self._write_points[active] < self._pages_per_block:
            return active
        if len(self._free_by_channel[channel]) <= self.config.gc_free_block_threshold:
            self._garbage_collect(channel)
        free = self._free_by_channel[channel]
        if not free:
            raise OutOfSpaceError(f"no free blocks on channel {channel} after GC")
        block = free.pop()
        self._active_blocks[channel] = block
        self._alloc_order[channel].append(block)
        return block

    def _gc_headroom_pages(self, channel: int) -> int:
        """Erased pages GC may program into on ``channel`` (free pool + active)."""
        per = self._pages_per_block
        pages = len(self._free_by_channel[channel]) * per
        active = self._active_blocks[channel]
        if active is not None:
            pages += per - self._write_points[active]
        return pages

    def _garbage_collect(self, channel: int, target_blocks: int | None = None) -> None:
        """Greedy channel-local GC: reclaim until the pool is above threshold.

        GC never crosses channels: the victim and the copyback target share
        a channel, so relocation's read->program dependency chains sit on
        one channel timeline and need no cross-channel synchronisation (and
        the striped layout keeps every channel's share of invalid pages
        statistically equal).  A victim is only collected when the current
        headroom (erased pages in the channel's free pool plus its active
        block) covers its valid-page copyback — erasing is how GC *gains*
        space, so it must never erase itself into a corner.  Independent of
        the block target, collection continues until the page-granular
        headroom floor (one block's worth of erased pages) is restored:
        tight geometries may never stabilise the free pool above one block,
        yet stay perfectly sustainable by cycling the active block's spare
        pages.  ``target_blocks=0`` runs a floor-only pass (used before
        each program).
        """
        geo = self.chip.geometry
        if target_blocks is None:
            target_blocks = self.config.gc_free_block_threshold + 1
        floor_pages = geo.pages_per_block
        guard = geo.total_pages + geo.num_blocks
        while (
            len(self._free_by_channel[channel]) < target_blocks
            or self._gc_headroom_pages(channel) <= floor_pages
        ):
            guard -= 1
            if guard < 0:
                raise OutOfSpaceError("garbage collection cannot make progress")
            victim = self._pick_victim(channel)
            if victim is None or self._valid_count[victim] > self._gc_headroom_pages(channel):
                if self._release_trans_block(channel):
                    continue  # the freed stream block may be reclaimable
                if self._free_by_channel[channel] or self._gc_headroom_pages(channel) > 0:
                    return  # nothing reclaimable; live with what we have
                raise OutOfSpaceError("no GC victim and no free blocks")
            self._collect_block(victim)

    def _pick_victim(self, channel: int) -> int | None:
        if self.config.gc_policy == "fifo":
            victim = self._pick_victim_fifo(channel)
            if victim is not None:
                return victim
            # Explicit fallback (see FtlConfig.gc_policy): FIFO found no
            # reclaimable block in allocation-age order, so the greedy pick
            # keeps GC live.  Counted so aged-state results produced under
            # fallback are never silently mislabeled as pure FIFO.
            self._obs_gc_fifo_fallbacks.inc()
        return self._pick_victim_greedy(channel)

    def _pick_victim_fifo(self, channel: int) -> int | None:
        """Oldest reclaimable block in the channel's allocation order."""
        per = self._pages_per_block
        write_points = self._write_points
        valid_counts = self._valid_count
        active = self._active_blocks[channel]
        trans = self._trans_active[channel]
        for block in self._alloc_order[channel]:
            if block == active or block == trans:
                continue
            used = write_points[block]
            if used == 0:
                continue
            valid = valid_counts[block]
            if valid < used or used == per:
                if valid < per:
                    return block
        return None

    def _pick_victim_greedy(self, channel: int) -> int | None:
        """Channel block with the fewest valid pages among written, non-active."""
        per = self._pages_per_block
        write_points = self._write_points
        valid_counts = self._valid_count
        active = self._active_blocks[channel]
        trans = self._trans_active[channel]
        best = None
        best_valid = None
        for block in self.chip.geometry.channel_blocks(channel):
            if block == active or block == trans:
                continue
            used = write_points[block]
            if used == 0:
                continue  # free or erased
            valid = valid_counts[block]
            if valid >= used and used < per:
                continue  # partially-written block with nothing reclaimable
            if best_valid is None or valid < best_valid:
                best, best_valid = block, valid
        if best is not None and best_valid == per:
            return None  # all blocks fully valid: nothing to reclaim
        return best

    def _collect_block(self, victim: int) -> None:
        geo = self.chip.geometry
        channel = geo.channel_of_block(victim)
        used = self._write_points[victim]
        valid_before = self._valid_count[victim]
        self.stats.gc_invocations += 1
        if victim in self._trans_blocks:
            self.stats.gc_translation_collections += 1
        self._note_victim_valid(valid_before, geo.pages_per_block)

        # Copyback counters batch per victim instead of per page; the
        # try/finally keeps them exact when a crash point fires mid-loop
        # (a read that happened before the failure is still counted).
        reads = 0
        writes = 0
        owners = self._owner
        chip_read = self.chip.read
        tenants = self.chip.tenants
        if tenants.enabled:
            # Cross-tenant collision accounting: a victim holding live
            # data from several tenants makes each pay for the others'
            # heat.  Copybacks attribute to the page's owning tenant.
            start = victim * geo.pages_per_block
            tenants.note_gc_victim(
                tenants.owner_of(owner[1])
                for owner in map(owners.get, range(start, start + used))
                if owner is not None and owner[0] == OWNER_L2P
            )
        try:
            with self.obs.tracer.span("gc_collect", "ftl"):
                start = victim * geo.pages_per_block
                for ppn in range(start, start + used):
                    owner = owners.get(ppn)
                    if owner is None:
                        continue
                    data = chip_read(ppn)
                    reads += 1
                    new_ppn = self._program_for_gc(data, self._gc_oob(owner, ppn), channel)
                    writes += 1
                    if tenants.enabled and owner[0] == OWNER_L2P:
                        tenants.note_copyback(owner[1])
                    self._drop_owner(ppn)
                    self._set_owner_raw(new_ppn, owner)
                    self._apply_relocation(owner, ppn, new_ppn)
                self.chip.erase(victim)
        finally:
            if reads:
                self.stats.gc_copyback_reads += reads
            if writes:
                self.stats.gc_copyback_writes += writes
        self._trans_blocks.discard(victim)
        self._free_by_channel[channel].append(victim)
        try:
            self._alloc_order[channel].remove(victim)
        except ValueError:
            pass

    def _note_victim_valid(self, valid_pages: int, pages_per_block: int) -> None:
        """Record one GC victim's valid-page count (running mean + histogram)."""
        self._gc_valid_ratio_sum += valid_pages / pages_per_block
        self._gc_valid_ratio_count += 1
        self._obs_gc_victim_valid.observe(float(valid_pages))

    def _program_for_gc(self, data: Any, oob: tuple, channel: int) -> int:
        """Program during GC, drawing directly on the channel's free pool."""
        per = self._pages_per_block
        write_points = self._write_points
        active = self._active_blocks[channel]
        if active is None or write_points[active] >= per:
            free = self._free_by_channel[channel]
            if not free:
                raise OutOfSpaceError("GC ran out of headroom blocks")
            active = free.pop()
            self._active_blocks[channel] = active
            self._alloc_order[channel].append(active)
        ppn = active * per + write_points[active]
        self.chip.program(ppn, data, oob)
        if write_points[active] >= per:
            self._active_blocks[channel] = None
        return ppn

    def _gc_oob(self, owner: tuple, old_ppn: int) -> tuple:
        """OOB metadata for a GC-relocated page."""
        kind = owner[0]
        self._seq += 1
        if kind == OWNER_L2P:
            # Committed data: replayable by anyone (tid=None).
            return (OOB_DATA, owner[1], self._seq, None)
        if kind == OWNER_MAP:
            return (OOB_MAP, owner[1], self._seq, None)
        if kind == OWNER_META:
            return (OOB_META, owner[1], self._seq, None)
        if kind == OWNER_RETIRED:
            # Keep the retired page's real identity: a relocated retired
            # X-L2P table page must stay recognisable as OOB_XL2P_TABLE (and
            # keep its page index) or recovery misclassifies it as firmware
            # metadata.
            retired_kind = owner[1]
            oob_kind = {
                OWNER_MAP: OOB_MAP,
                OWNER_META: OOB_META,
                OWNER_XL2P_TABLE: OOB_XL2P_TABLE,
            }.get(retired_kind, OOB_META)
            return (oob_kind, owner[2] if isinstance(owner[2], int) else 0, self._seq, None)
        # Subclass owners (X-L2P) are handled by _gc_oob_extra.
        return self._gc_oob_extra(owner, old_ppn)

    def _gc_oob_extra(self, owner: tuple, old_ppn: int) -> tuple:
        raise FtlError(f"unknown page owner {owner!r}")

    def _apply_relocation(self, owner: tuple, old_ppn: int, new_ppn: int) -> None:
        """Point the owning structure(s) at the relocated physical page."""
        kind = owner[0]
        if kind == OWNER_L2P:
            self._l2p[owner[1]] = new_ppn
            # The relocated mapping must reach flash at the next flush: the
            # published root.seq will cover the relocation's sequence number,
            # so OOB replay would skip it — without the dirty marker a crash
            # after the next barrier reads the stale flushed mapping.
            self._mark_dirty(owner[1])
        elif kind == OWNER_MAP:
            self._map_dir[owner[1]] = new_ppn
            if self._root.map_dir.get(owner[1]) == old_ppn:
                self._root.map_dir[owner[1]] = new_ppn  # atomic meta update
        elif kind == OWNER_META:
            self._meta_dir[owner[1]] = new_ppn
            if self._root.meta_dir.get(owner[1]) == old_ppn:
                self._root.meta_dir[owner[1]] = new_ppn
        elif kind == OWNER_RETIRED:
            self._pending_retired.discard(old_ppn)
            self._pending_retired.add(new_ppn)
            self._relocate_root_reference(owner[1], owner[2], old_ppn, new_ppn)
        else:
            self._apply_relocation_extra(owner, old_ppn, new_ppn)

    def _relocate_root_reference(
        self, kind: str, key: object, old_ppn: int, new_ppn: int
    ) -> None:
        """Keep the durable root pointing at a relocated retired page."""
        if kind == OWNER_MAP and self._root.map_dir.get(key) == old_ppn:
            self._root.map_dir[key] = new_ppn
        elif kind == OWNER_META and self._root.meta_dir.get(key) == old_ppn:
            self._root.meta_dir[key] = new_ppn
        elif kind == OWNER_XL2P_TABLE and old_ppn in self._root.xl2p_ppns:
            self._root.xl2p_ppns = tuple(
                new_ppn if p == old_ppn else p for p in self._root.xl2p_ppns
            )

    def _apply_relocation_extra(self, owner: tuple, old_ppn: int, new_ppn: int) -> None:
        raise FtlError(f"unknown page owner {owner!r}")

    # -------- map persistence ------------------------------------------

    def _segment_entries(self, segment: int) -> tuple:
        return self._l2p.segment_items(segment)

    def _segment_image(self, segment: int) -> tuple:
        """The image a translation-page flush of ``segment`` would program.

        The stock FTL programs the raw ``(lpn, ppn)`` entries; the
        multi-version XFTL overrides this to append version chains.
        """
        return self._segment_entries(segment)

    @staticmethod
    def _translation_images_match(flushed, live) -> bool:
        """Order-insensitive comparison of two translation-page images.

        Images hold ``(lpn, ppn)`` pairs — or ``(lpn, ppn, chain)`` triples
        under the multi-version XFTL — keyed by lpn.
        """
        return {e[0]: e[1:] for e in flushed} == {e[0]: e[1:] for e in live}

    def _retire(self, ppn: int, kind: str, key: object) -> None:
        """Keep a superseded root-referenced page valid until root publish."""
        self._drop_owner(ppn)
        self._set_owner_raw(ppn, (OWNER_RETIRED, kind, key))
        self._pending_retired.add(ppn)

    def _write_translation_page(self, segment: int, entries: tuple | None = None) -> int:
        """Program one translation (map) page and repoint the directory.

        Shared by the barrier flush, CMT dirty evictions and the commit
        pinning path; ``entries`` overrides the live segment content (the
        commit path programs an overlaid post-fold image).
        """
        if entries is None:
            entries = self._segment_entries(segment)
        self._seq += 1
        ppn = self._program(entries, (OOB_MAP, segment, self._seq, None))
        old = self._map_dir.get(segment)
        if old is not None and old in self._owner:
            if self._root.map_dir.get(segment) == old:
                # The durable root still references the superseded page:
                # pin it until the next publish (the seed barrier path —
                # map_dir and root.map_dir are always in sync there).
                self._retire(old, OWNER_MAP, segment)
            else:
                # Only demand-paged writebacks get here: the same segment
                # was already rewritten since the last publish, so the
                # superseded copy is not root-referenced and pinning it
                # would let retired pages pile up unboundedly between
                # publishes.
                self._invalidate(old)
        self._map_dir[segment] = ppn
        self._set_owner(ppn, (OWNER_MAP, segment))
        self.stats.map_page_writes += 1
        return ppn

    def _flush_map(self) -> None:
        # One pass over the segments dirty *now*.  A GC pass inside one of
        # these programs can relocate a data page and re-dirty its segment;
        # such markers deliberately survive into the next barrier — the
        # relocation's fresh sequence number sits above the snapshot
        # root.seq the enclosing barrier publishes, so OOB replay covers
        # the gap until the segment is rewritten.
        for segment in sorted(self._dirty_segments):
            self.chip.crash_plan.hit(CP_BARRIER_MID)
            self._dirty_segments.discard(segment)
            self._write_translation_page(segment)

    def _flush_meta(self) -> None:
        """Firmware misc metadata (write points, erase counts, ...)."""
        for slot in range(self.config.barrier_meta_pages):
            self._seq += 1
            ppn = self._program(("meta", slot), (OOB_META, slot, self._seq, None))
            old = self._meta_dir.get(slot)
            if old is not None and old in self._owner:
                self._retire(old, OWNER_META, slot)
            self._meta_dir[slot] = ppn
            self._set_owner(ppn, (OWNER_META, slot))
            self.stats.map_page_writes += 1

    def _publish_root(self, seq: int) -> None:
        """Atomically update the meta block (assumed atomic, §5.3).

        ``seq`` is the replay horizon: OOB entries above it are replayed at
        remount.  The barrier passes its pre-flush snapshot so relocations
        performed *during* the flush stay replayable.
        """
        self._root = RootRecord(
            map_dir=dict(self._map_dir),
            meta_dir=dict(self._meta_dir),
            seq=seq,
            xl2p_ppns=self._root.xl2p_ppns,
            committed_tids=self._root.committed_tids,
            commit_seq=self._commit_seq_for_root(),
        )

    def _commit_seq_for_root(self) -> int:
        """Commit sequence counter published with the root (XFTL overrides)."""
        return self._root.commit_seq

    # -------- recovery helpers ------------------------------------------

    def _scan_oob(self, min_seq: int) -> Iterator[tuple[int, str, int, int | None, int]]:
        """Yield ``(seq, kind, lpn, tid, ppn)`` for programmed pages with seq >= min_seq."""
        geo = self.chip.geometry
        page_states = self._page_states
        for ppn in range(geo.total_pages):
            if page_states[ppn] != PAGE_PROGRAMMED:
                continue
            oob = self.chip.read_oob(ppn)
            if not oob:
                continue
            kind, lpn, seq, tid = oob
            if seq >= min_seq:
                yield (seq, kind, lpn, tid, ppn)

    def _rebuild_space_state(self) -> None:
        geo = self.chip.geometry
        self.chip.state.rebuild_validity(self._owner)
        write_points = self._write_points
        self._free_by_channel = [
            [b for b in geo.channel_blocks(ch) if write_points[b] == 0]
            for ch in range(geo.channels)
        ]
        # Allocation-age order is volatile; approximate by block number.
        self._alloc_order = [
            [b for b in geo.channel_blocks(ch) if write_points[b] > 0]
            for ch in range(geo.channels)
        ]
        self._active_blocks = [None] * geo.channels
        self._write_channel = 0
        # Translation-block identity is volatile: after a crash the stream
        # restarts with fresh allocations and old translation blocks are
        # treated as ordinary aged blocks.
        self._trans_active = [None] * geo.channels
        self._trans_blocks = set()
        # Resume appending into each channel's fullest partially-written block.
        for channel in range(geo.channels):
            partials = [
                block
                for block in geo.channel_blocks(channel)
                if 0 < write_points[block] < geo.pages_per_block
            ]
            if partials:
                self._active_blocks[channel] = max(partials, key=write_points.__getitem__)

    # -------- inspection --------------------------------------------------

    def mapped_ppn(self, lpn: int) -> int | None:
        """Current physical page of ``lpn`` in the committed L2P view."""
        return self._l2p.get(lpn)

    def free_block_count(self) -> int:
        return sum(len(free) for free in self._free_by_channel)

    def free_block_count_by_channel(self) -> list[int]:
        return [len(free) for free in self._free_by_channel]

    def utilization(self) -> float:
        """Fraction of raw flash pages currently holding valid data."""
        return len(self._owner) / self.chip.geometry.total_pages

    def wear_stats(self) -> dict[str, float]:
        """Erase-count distribution across blocks (wear levelling view)."""
        counts = self.chip.state.erase_counts
        total = sum(counts)
        n = len(counts)
        mean = total / n
        variance = sum((c - mean) ** 2 for c in counts) / n
        return {
            "total_erases": float(total),
            "mean": mean,
            "max": float(max(counts)),
            "min": float(min(counts)),
            "stddev": variance**0.5,
        }

    def gc_mean_valid_ratio(self) -> float:
        """Average fraction of valid pages carried over per GC (Fig. 5/6 knob)."""
        if not self._gc_valid_ratio_count:
            return 0.0
        return self._gc_valid_ratio_sum / self._gc_valid_ratio_count

    def check_invariants(self) -> None:
        """Internal consistency checks used by tests (not by benchmarks)."""
        geo = self.chip.geometry
        state_view = self.chip.state
        counts = [0] * geo.num_blocks
        for ppn, owner in self._owner.items():
            counts[ppn // geo.pages_per_block] += 1
            if state_view.page_states[ppn] != PAGE_PROGRAMMED:
                raise FlashError(f"owned page {ppn} ({owner}) is not programmed")
            if not state_view.valid[ppn]:
                raise FtlError(f"owned page {ppn} ({owner}) not set in valid bitmap")
        if counts != self._valid_count:
            raise FtlError("valid-count accounting out of sync")
        if state_view.valid_page_count() != len(self._owner):
            raise FtlError("valid bitmap popcount disagrees with owner map")
        if list(state_view.valid_count_per_block()) != state_view.valid_counts:
            raise FtlError("per-block valid counts disagree with valid bitmap")
        for lpn, ppn in self._l2p.items():
            if self._owner.get(ppn) != (OWNER_L2P, lpn):
                raise FtlError(f"l2p[{lpn}]={ppn} not owned by l2p")
        for segment, bucket in self._l2p.segments.items():
            per = self._l2p.entries_per_page
            for lpn in bucket:
                if lpn // per != segment or lpn not in self._l2p:
                    raise FtlError(f"l2p segment bucket {segment} out of sync at {lpn}")
        if sum(len(b) for b in self._l2p.segments.values()) != len(self._l2p):
            raise FtlError("l2p segment buckets out of sync with mapping")
        for channel in range(geo.channels):
            active = self._active_blocks[channel]
            if active is not None and geo.channel_of_block(active) != channel:
                raise FtlError(f"active block {active} not on channel {channel}")
            trans = self._trans_active[channel]
            if trans is not None:
                if geo.channel_of_block(trans) != channel:
                    raise FtlError(f"trans block {trans} not on channel {channel}")
                if trans == active:
                    raise FtlError(f"trans block {trans} doubles as the active block")
                if trans in self._free_by_channel[channel]:
                    raise FtlError(f"trans block {trans} still in the free pool")
            for block in self._free_by_channel[channel]:
                if geo.channel_of_block(block) != channel:
                    raise FtlError(f"free block {block} on wrong channel list {channel}")
                if state_view.write_points[block] != 0:
                    raise FtlError(f"free block {block} is not erased")
        if self._cmt is not None:
            self._cmt.check_invariants()
        if self._gc is not None:
            self._gc.check_invariants()
