"""Background garbage collection: watermarks, hot/cold streams, wear leveling.

The seed model garbage-collects *inline*: when a channel's free pool runs
low, the host write that noticed it performs the whole stop-the-world pass —
every copyback read/program and the erase — before its own program starts.
That is faithful to the stock OpenSSD firmware but it puts a multi-
millisecond pause under an unlucky foreground write, which distorts the
latency side of the paper's figures at high space utilization.

:class:`BackgroundGC` replaces that pass (``FtlConfig.gc_mode =
"background"``) with the scheduling structure Dayan & Bonnet describe for
flash-resident page-mapping FTLs:

Paced per-block copyback jobs
    Reclaiming a victim is a :class:`GcJob` — a cursor over the victim's
    programmed pages.  Each background *step* relocates at most
    ``gc_copyback_pages_per_step`` pages and then yields, so foreground
    writes preempt a collection in flight.  Steps run inside a
    ``chip.overlap()`` region: their flash time is reserved on the owning
    channel's :class:`~repro.sim.events.ResourceTimeline` without blocking
    the clock, and a step is only taken when the channel's reserved backlog
    is within ``gc_idle_backlog_us`` — i.e. collections are scheduled into
    the channel's idle windows.

Watermark state machine
    Per channel: ``idle → background → urgent``.  Background collection
    engages when the free pool drops to ``gc_background_watermark`` blocks;
    the *urgent* state triggers at the page-granular headroom floor (one
    block's worth of erased pages — the same floor the inline collector
    maintains) and collects synchronously until the floor is restored,
    observing the stall into the ``ftl.gc.pause_us`` histogram.

Hot/cold write streams
    Each channel keeps two active blocks.  The FTL's own active block
    (which copybacks also append into) is the *cold* stream; data writes
    whose LPN has accumulated ``gc_hot_write_threshold`` writes — plus all
    map/meta/X-L2P table pages, which are rewritten on every flush — go to
    a *hot* active block.  Segregation concentrates invalidations, so
    victims carry fewer valid pages.

Wear leveling
    Every ``gc_wear_check_interval`` steps the erase-count spread is
    sampled; beyond ``gc_wear_spread_threshold`` the least-worn written
    block (cold data sits still exactly there) is migrated into the cold
    stream and erased, cycling it back into the allocation pool.

Safety: the job cursor only ever relocates pages through the owning FTL's
``_gc_oob`` / ``_apply_relocation`` hooks, so the X-L2P live-union
invariant (pages referenced by L2P *or any* X-L2P entry are never
reclaimed) holds at every preemption point — uncommitted transactional
copies keep their tid and their X-L2P entry is repointed, exactly as in
the inline pass.  With ``retain_versions > 1`` the live union also covers
version-chain entries (``OWNER_VERSION`` pages): copyback repoints the
chain entry in place, preserving chain order, and the relocated page keeps
its original OOB sequence number so replay never resurrects it as the
current copy.  The ``gc.*`` crash points below are swept by the ``ftl.gc``
verify layer; the version-chain edges by ``ftl.mvcc``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.errors import FtlError, OutOfSpaceError
from repro.ftl.pagemap import OOB_DATA, OOB_MAP, OWNER_L2P
from repro.obs import DEFAULT_SIZE_BOUNDS
from repro.sim.crash import register_crash_point

CP_GC_VICTIM = register_crash_point(
    "gc.victim.selected", "ftl.gc", "background GC victim chosen, no copyback started"
)
CP_GC_COPYBACK = register_crash_point(
    "gc.copyback.page", "ftl.gc", "between page copybacks of a GC job"
)
CP_GC_ERASE = register_crash_point(
    "gc.erase.before", "ftl.gc", "GC job copybacks complete, victim erase pending"
)
CP_GC_WEAR = register_crash_point(
    "gc.wear.migrate", "ftl.gc", "between page migrations of a wear-leveling job"
)

GC_POLICIES = ("greedy", "fifo", "cost-benefit")


class GcState(enum.Enum):
    """Per-channel watermark state."""

    IDLE = "idle"
    BACKGROUND = "background"
    URGENT = "urgent"


@dataclass
class GcJob:
    """One victim block being reclaimed incrementally.

    ``cursor`` walks the victim's programmed pages; between steps the block
    is half-relocated but fully consistent — every still-owned page is
    reachable through its owning structure, every moved page already is.
    """

    victim: int
    cursor: int  # next ppn to examine
    end: int  # one past the victim's last programmed ppn
    moved: int = 0
    wear: bool = False  # wear-leveling migration (vs. space reclamation)


class BackgroundGC:
    """Background collector bound to one :class:`PageMappingFTL` (or XFTL).

    Owns no mapping state of its own: space bookkeeping (free pools, valid
    counts, owners) stays in the FTL; this class decides *when* and *what*
    to collect and drives the FTL's relocation primitives.
    """

    def __init__(self, ftl) -> None:
        self.ftl = ftl
        config = ftl.config
        if config.gc_policy not in GC_POLICIES:
            raise FtlError(
                f"unknown gc_policy {config.gc_policy!r}; expected one of {GC_POLICIES}"
            )
        geo = ftl.chip.geometry
        # Config scalars cached for the per-program scheduling path (the
        # config object never mutates after construction).
        self._hot_threshold = config.gc_hot_write_threshold
        self._background_watermark = config.gc_background_watermark
        self._idle_backlog_us = config.gc_idle_backlog_us
        self._pages_per_step = config.gc_copyback_pages_per_step
        self._wear_spread_threshold = config.gc_wear_spread_threshold
        self._wear_check_interval = config.gc_wear_check_interval
        self._states: list[GcState] = [GcState.IDLE] * geo.channels
        self._jobs: list[GcJob | None] = [None] * geo.channels
        self._hot_active: list[int | None] = [None] * geo.channels
        self._heat: dict[int, int] = {}  # lpn -> cumulative write count
        self._alloc_tick: dict[int, int] = {}  # block -> tick it left the pool
        self._tick = 0
        # Per channel: a global counter would lock wear checks onto one
        # channel's parity (host programs round-robin the channels, so any
        # interval sharing a factor with the channel count samples the same
        # channel forever).
        self._steps_since_wear_check = [0] * geo.channels
        obs = ftl.chip.obs
        self._obs_pause_us = obs.histogram("ftl.gc.pause_us")
        self._obs_copyback_pages = obs.histogram(
            "ftl.gc.copyback_pages", DEFAULT_SIZE_BOUNDS
        )
        self._obs_erase_spread = obs.histogram(
            "ftl.gc.erase_spread", DEFAULT_SIZE_BOUNDS
        )
        self._obs_transitions = {
            state: obs.counter(f"ftl.gc.transitions_to_{state.value}")
            for state in GcState
        }
        self._obs_background = obs.counter("ftl.gc.background_collections")
        obs.bind(
            ftl.stats,
            {
                "ftl.gc.urgent_collections": "gc_urgent_collections",
                "ftl.gc.wear_migrations": "gc_wear_migrations",
            },
        )
        self._obs_hot_writes = obs.counter("ftl.gc.hot_stream_writes")
        self._obs_cold_writes = obs.counter("ftl.gc.cold_stream_writes")
        self._obs_trans_writes = obs.counter("ftl.gc.trans_stream_writes")

    # ------------------------------------------------------------ host path

    def host_program(self, data: Any, oob: tuple, channel: int) -> int:
        """Append one host-originated page; runs the GC machinery first."""
        ftl = self.ftl
        chip = ftl.chip
        self._tick += 1
        trans = ftl._cmt is not None and oob[0] == OOB_MAP
        # _classify, inlined (heat-map update on the data path).
        hot = False
        if not trans:
            threshold = self._hot_threshold
            if threshold > 0:
                if oob[0] != OOB_DATA:
                    hot = True
                else:
                    heat = self._heat
                    lpn = oob[1]
                    count = heat.get(lpn, 0) + 1
                    heat[lpn] = count
                    hot = count >= threshold
        self._step(channel)
        if trans:
            block = self._ensure_trans_stream_block(channel)
        else:
            block = self._ensure_stream_block(channel, hot)
        per = ftl._pages_per_block
        write_points = ftl._write_points
        ppn = block * per + write_points[block]
        chip.program(ppn, data, oob)
        if trans:
            self._obs_trans_writes.inc()
        else:
            (self._obs_hot_writes if hot else self._obs_cold_writes).inc()
            tenants = chip.tenants
            if tenants.enabled:
                tenants.note_stream_write(hot)
        if write_points[block] >= per:
            # A hot or translation write may have degraded onto the cold
            # block, so clear whichever stream(s) hold the filled block.
            if self._hot_active[channel] == block:
                self._hot_active[channel] = None
            if ftl._trans_active[channel] == block:
                ftl._trans_active[channel] = None
            if ftl._active_blocks[channel] == block:
                ftl._active_blocks[channel] = None
        return ppn

    def _classify(self, oob: tuple) -> bool:
        """Hot-stream decision for this program (updates the heat map)."""
        threshold = self.ftl.config.gc_hot_write_threshold
        if threshold <= 0:
            return False
        kind = oob[0]
        if kind != OOB_DATA:
            # Map/meta/X-L2P table pages are rewritten on every flush: the
            # hottest data on the device by construction.
            return True
        lpn = oob[1]
        count = self._heat.get(lpn, 0) + 1
        self._heat[lpn] = count
        return count >= threshold

    def _ensure_stream_block(self, channel: int, hot: bool) -> int:
        """Open (or reuse) the channel's hot or cold active block."""
        ftl = self.ftl
        per = ftl._pages_per_block
        write_points = ftl._write_points
        store = self._hot_active if hot else ftl._active_blocks
        active = store[channel]
        if active is not None and write_points[active] < per:
            return active
        if hot and ftl._gc_headroom_pages(channel) <= 2 * per:
            # Opening a hot block takes a free block out of GC headroom
            # (copybacks only ever target the cold stream), so the second
            # stream is strictly opportunistic: without two blocks of slack
            # beyond the urgent floor, degrade to the cold stream rather
            # than eroding the margin that keeps collection live.
            store[channel] = None
            return self._ensure_stream_block(channel, hot=False)
        free = ftl._free_by_channel[channel]
        if not free:
            self._collect_until_floor(channel, need_free_block=True)
        if not free:
            cold = ftl._active_blocks[channel]
            if hot and cold is not None and write_points[cold] < per:
                # Degraded: no block for a second stream — share the cold one.
                return cold
            raise OutOfSpaceError(f"no free blocks on channel {channel} after GC")
        block = free.pop()
        store[channel] = block
        ftl._alloc_order[channel].append(block)
        self._alloc_tick[block] = self._tick
        return block

    def _ensure_trans_stream_block(self, channel: int) -> int:
        """Open (or reuse) the channel's translation-block stream.

        Like the hot stream, strictly opportunistic: translation pages fall
        back to the cold stream rather than eroding GC headroom below two
        blocks of slack.
        """
        ftl = self.ftl
        per = ftl._pages_per_block
        write_points = ftl._write_points
        active = ftl._trans_active[channel]
        if active is not None and write_points[active] < per:
            return active
        if ftl._gc_headroom_pages(channel) <= 2 * per:
            ftl._trans_active[channel] = None
            return self._ensure_stream_block(channel, hot=False)
        free = ftl._free_by_channel[channel]
        if not free:
            self._collect_until_floor(channel, need_free_block=True)
        if not free:
            cold = ftl._active_blocks[channel]
            if cold is not None and write_points[cold] < per:
                return cold
            raise OutOfSpaceError(f"no free blocks on channel {channel} after GC")
        block = free.pop()
        ftl._trans_active[channel] = block
        ftl._alloc_order[channel].append(block)
        ftl._trans_blocks.add(block)
        self._alloc_tick[block] = self._tick
        return block

    # --------------------------------------------------- watermark machine

    def state_of(self, channel: int) -> GcState:
        return self._states[channel]

    def _set_state(self, channel: int, state: GcState) -> None:
        if self._states[channel] is state:
            return
        self._states[channel] = state
        self._obs_transitions[state].inc()

    def _step(self, channel: int) -> None:
        """One GC scheduling decision, taken before every host program."""
        ftl = self.ftl
        floor = ftl._pages_per_block
        watermark = self._background_watermark
        jobs = self._jobs
        free = ftl._free_by_channel[channel]
        if ftl._gc_headroom_pages(channel) <= floor:
            self._set_state(channel, GcState.URGENT)
            self._collect_until_floor(channel)
        elif jobs[channel] is not None or len(free) <= watermark:
            self._set_state(channel, GcState.BACKGROUND)
            if ftl.chip.channel_backlog_us(channel) <= self._idle_backlog_us:
                self._background_step(channel)
        else:
            self._set_state(channel, GcState.IDLE)
        self._maybe_wear_level(channel)
        # Settle the post-work state so observers see where the channel is.
        if ftl._gc_headroom_pages(channel) > floor:
            if jobs[channel] is None and len(free) > watermark:
                self._set_state(channel, GcState.IDLE)
            else:
                self._set_state(channel, GcState.BACKGROUND)

    def _idle_window(self, channel: int) -> bool:
        return self.ftl.chip.channel_backlog_us(channel) <= self._idle_backlog_us

    # ------------------------------------------------------------- jobs

    def _open_job(self, channel: int, victim: int, wear: bool = False) -> GcJob:
        ftl = self.ftl
        geo = ftl.chip.geometry
        used = ftl._write_points[victim]
        start = victim * geo.pages_per_block
        job = GcJob(victim=victim, cursor=start, end=start + used, wear=wear)
        self._jobs[channel] = job
        ftl.stats.gc_invocations += 1
        if victim in ftl._trans_blocks:
            ftl.stats.gc_translation_collections += 1
        ftl._note_victim_valid(ftl._valid_count[victim], geo.pages_per_block)
        tenants = ftl.chip.tenants
        if tenants.enabled:
            # Cross-tenant collision accounting: a victim whose valid
            # pages belong to several tenants makes each pay copyback for
            # the others' heat.
            owners = ftl._owner
            tenants.note_gc_victim(
                tenants.owner_of(owner[1])
                for owner in map(owners.get, range(job.cursor, job.end))
                if owner is not None and owner[0] == OWNER_L2P
            )
        ftl.chip.crash_plan.hit(CP_GC_VICTIM)
        return job

    def _run_job(self, channel: int, job: GcJob, max_pages: int | None = None) -> bool:
        """Advance ``job``; returns True when the victim has been erased.

        With ``max_pages`` the job yields after that many copybacks — the
        preemption point where foreground writes interleave.  Without it
        the job runs to completion (the urgent path).
        """
        ftl = self.ftl
        chip = ftl.chip
        crash_plan = chip.crash_plan
        crash_point = CP_GC_WEAR if job.wear else CP_GC_COPYBACK
        owners = ftl._owner
        chip_read = chip.read
        l2p = ftl._l2p
        dirty_segments = ftl._dirty_segments
        valid_bitmap = ftl._valid_bitmap
        valid_counts = ftl._valid_count
        per = ftl._pages_per_block
        entries_per_page = ftl._map_entries_per_page
        program_for_gc = ftl._program_for_gc
        tenants = chip.tenants
        tenants_enabled = tenants.enabled
        moved_this_step = 0
        # Copyback counters batch across the slice; the try/finally keeps
        # them exact when a crash point fires mid-copyback (a read that
        # happened before the failure is still counted).
        reads = 0
        writes = 0
        try:
            while job.cursor < job.end:
                ppn = job.cursor
                owner = owners.get(ppn)
                if owner is None:
                    job.cursor += 1
                    continue
                if max_pages is not None and moved_this_step >= max_pages:
                    return False
                if crash_plan._points:
                    crash_plan.hit(crash_point)
                data = chip_read(ppn)
                reads += 1
                if owner[0] == OWNER_L2P:
                    # The dominant copyback case (committed host data),
                    # with _gc_oob / _drop_owner / _set_owner_raw /
                    # _apply_relocation inlined.  None of these hooks is
                    # overridden in-tree for OWNER_L2P pages; the generic
                    # path below stays authoritative for every other owner.
                    lpn = owner[1]
                    ftl._seq += 1
                    new_ppn = program_for_gc(
                        data, (OOB_DATA, lpn, ftl._seq, None), channel
                    )
                    writes += 1
                    if tenants_enabled:
                        tenants.note_copyback(lpn)
                    del owners[ppn]
                    valid_bitmap[ppn] = 0
                    valid_counts[ppn // per] -= 1
                    if new_ppn not in owners:
                        valid_bitmap[new_ppn] = 1
                        valid_counts[new_ppn // per] += 1
                    owners[new_ppn] = owner
                    l2p[lpn] = new_ppn
                    # The relocated mapping must reach flash at the next
                    # flush (see _apply_relocation for the rationale).
                    dirty_segments.add(lpn // entries_per_page)
                else:
                    new_ppn = program_for_gc(data, ftl._gc_oob(owner, ppn), channel)
                    writes += 1
                    ftl._drop_owner(ppn)
                    ftl._set_owner_raw(new_ppn, owner)
                    ftl._apply_relocation(owner, ppn, new_ppn)
                job.cursor += 1
                job.moved += 1
                moved_this_step += 1
        finally:
            if reads:
                ftl.stats.gc_copyback_reads += reads
            if writes:
                ftl.stats.gc_copyback_writes += writes
        if crash_plan._points:
            crash_plan.hit(CP_GC_ERASE)
        chip.erase(job.victim)
        ftl._trans_blocks.discard(job.victim)
        ftl._free_by_channel[channel].append(job.victim)
        # Wear-aware allocation: keep the pool sorted most-worn-first, so
        # ``pop()`` (how both streams and copybacks draw blocks) always
        # hands out the least-worn free block.  Without this, LIFO reuse
        # parks cold blocks in the pool forever and leveling cannot narrow
        # the erase-count spread.
        counts = chip.state.erase_counts
        ftl._free_by_channel[channel].sort(key=lambda block: -counts[block])
        try:
            ftl._alloc_order[channel].remove(job.victim)
        except ValueError:
            pass
        self._alloc_tick.pop(job.victim, None)
        self._jobs[channel] = None
        self._obs_copyback_pages.observe(float(job.moved))
        return True

    def _background_step(self, channel: int) -> None:
        """Run one paced slice of collection during an idle window."""
        ftl = self.ftl
        job = self._jobs[channel]
        if job is None:
            victim = self._pick_victim(channel)
            if victim is None:
                return
            # Opening a job is only safe when its whole copyback fits in the
            # current headroom minus the urgent floor: host writes that
            # interleave with the paced job shrink headroom one page per
            # program, and the urgent path (which fires at the floor) must
            # always be able to finish the job synchronously.
            if ftl._valid_count[victim] > ftl._gc_headroom_pages(channel) - ftl._pages_per_block:
                return
            job = self._open_job(channel, victim)
        with ftl.chip.overlap():
            done = self._run_job(channel, job, max_pages=self._pages_per_step)
        if done:
            self._obs_background.inc()

    def _collect_until_floor(self, channel: int, need_free_block: bool = False) -> None:
        """Urgent/foreground collection: restore the page-granular floor.

        Mirrors the inline collector's termination semantics: collect while
        the headroom floor is breached (or, with ``need_free_block``, while
        the free pool is empty), bail out when nothing is reclaimable but
        some headroom remains, and raise :class:`OutOfSpaceError` only when
        truly wedged.  Runs synchronously — the stall is the foreground GC
        pause, observed into ``ftl.gc.pause_us``.
        """
        ftl = self.ftl
        geo = ftl.chip.geometry
        floor = geo.pages_per_block
        start_us = ftl.chip.clock.now_us
        collected = False
        guard = geo.total_pages + geo.num_blocks
        while (
            ftl._gc_headroom_pages(channel) <= floor
            or (need_free_block and not ftl._free_by_channel[channel])
        ):
            guard -= 1
            if guard < 0:
                raise OutOfSpaceError("garbage collection cannot make progress")
            job = self._jobs[channel]
            if job is None:
                victim = self._pick_victim(channel)
                if (
                    victim is None
                    or ftl._valid_count[victim] > ftl._gc_headroom_pages(channel)
                ):
                    if ftl._release_trans_block(channel):
                        continue  # the freed stream block may be reclaimable
                    if ftl._free_by_channel[channel] or ftl._gc_headroom_pages(channel) > 0:
                        break  # nothing reclaimable; live with what we have
                    raise OutOfSpaceError("no GC victim and no free blocks")
                job = self._open_job(channel, victim)
            self._run_job(channel, job)
            collected = True
            ftl.stats.gc_urgent_collections += 1
        if collected:
            self._obs_pause_us.observe(ftl.chip.clock.now_us - start_us)

    # --------------------------------------------------- victim selection

    def _excluded(self, channel: int) -> set[int | None]:
        job = self._jobs[channel]
        return {
            self.ftl._active_blocks[channel],
            self._hot_active[channel],
            self.ftl._trans_active[channel],
            job.victim if job is not None else None,
        }

    def _pick_victim(self, channel: int) -> int | None:
        policy = self.ftl.config.gc_policy
        if policy == "cost-benefit":
            return self._pick_cost_benefit(channel)
        if policy == "fifo":
            victim = self._pick_fifo(channel)
            if victim is not None:
                return victim
            # Explicit, counted fallback (see FtlConfig.gc_policy): FIFO
            # found nothing reclaimable in allocation-age order.
            self.ftl._obs_gc_fifo_fallbacks.inc()
        return self._pick_greedy(channel)

    def _reclaimable(self, block: int) -> bool:
        """Whether collecting ``block`` can gain at least one page."""
        ftl = self.ftl
        per = ftl._pages_per_block
        used = ftl._write_points[block]
        if used == 0:
            return False  # free or erased
        valid = ftl._valid_count[block]
        if valid >= used and used < per:
            return False  # partially-written block with nothing reclaimable
        return valid < per

    def _pick_greedy(self, channel: int) -> int | None:
        ftl = self.ftl
        per = ftl._pages_per_block
        write_points = ftl._write_points
        valid_counts = ftl._valid_count
        excluded = self._excluded(channel)
        best, best_valid = None, None
        for block in ftl.chip.geometry.channel_blocks(channel):
            if block in excluded:
                continue
            # _reclaimable, inlined: this scan runs per victim selection.
            used = write_points[block]
            if used == 0:
                continue
            valid = valid_counts[block]
            if (valid >= used and used < per) or valid >= per:
                continue
            if best_valid is None or valid < best_valid:
                best, best_valid = block, valid
        return best

    def _pick_fifo(self, channel: int) -> int | None:
        excluded = self._excluded(channel)
        for block in self.ftl._alloc_order[channel]:
            if block not in excluded and self._reclaimable(block):
                return block
        return None

    def _pick_cost_benefit(self, channel: int) -> int | None:
        """Rosenblum-style benefit/cost: ``age * (1 - u) / 2u``.

        ``u`` is the victim's valid fraction (copyback cost ``2u``: read +
        write per valid page, relative to the space gained ``1 - u``); age
        is measured in allocation ticks since the block left the free pool,
        so long-invalidated blocks beat freshly-written ones even at equal
        utilization.
        """
        ftl = self.ftl
        per = ftl._pages_per_block
        write_points = ftl._write_points
        valid_counts = ftl._valid_count
        alloc_tick_get = self._alloc_tick.get
        tick = self._tick
        excluded = self._excluded(channel)
        best, best_score = None, None
        for block in ftl.chip.geometry.channel_blocks(channel):
            if block in excluded:
                continue
            # _reclaimable, inlined: this scan runs per victim selection.
            used = write_points[block]
            if used == 0:
                continue
            valid = valid_counts[block]
            if (valid >= used and used < per) or valid >= per:
                continue
            age = tick - alloc_tick_get(block, 0)
            if valid == 0:
                score = float("inf")
            else:
                u = valid / used
                score = age * (1.0 - u) / (2.0 * u)
            if best_score is None or score > best_score:
                best, best_score = block, score
        return best

    # ------------------------------------------------------ wear leveling

    def _maybe_wear_level(self, channel: int) -> None:
        threshold = self._wear_spread_threshold
        if threshold <= 0:
            return
        checks = self._steps_since_wear_check
        count = checks[channel] + 1
        if count < self._wear_check_interval:
            checks[channel] = count
            return
        checks[channel] = 0
        ftl = self.ftl
        counts = ftl.chip.state.erase_counts
        spread = max(counts) - min(counts)
        self._obs_erase_spread.observe(float(spread))
        if spread < threshold:
            return
        if self._jobs[channel] is not None:
            return  # one job at a time per channel
        victim = self._pick_wear_victim(channel, min(counts))
        if victim is None:
            return
        # Wear victims may be fully valid: require a whole extra block of
        # slack beyond the urgent floor before taking one on.
        if ftl._valid_count[victim] > ftl._gc_headroom_pages(channel) - 2 * ftl._pages_per_block:
            return
        job = self._open_job(channel, victim, wear=True)
        ftl.stats.gc_wear_migrations += 1
        with ftl.chip.overlap():
            self._run_job(channel, job, max_pages=self._pages_per_step)

    def _pick_wear_victim(self, channel: int, global_min: int) -> int | None:
        """Least-worn written block on ``channel`` — where cold data sits.

        Only blocks at the very low end of the global erase distribution
        qualify: migrating an averagely-worn block would churn pages
        without narrowing the spread.
        """
        ftl = self.ftl
        excluded = self._excluded(channel)
        counts = ftl.chip.state.erase_counts
        write_points = ftl._write_points
        best, best_count = None, None
        for block in ftl.chip.geometry.channel_blocks(channel):
            if block in excluded:
                continue
            if write_points[block] == 0:
                continue  # erased blocks already cycle through the pool
            if counts[block] > global_min + 1:
                continue
            if best_count is None or counts[block] < best_count:
                best, best_count = block, counts[block]
        return best

    # ------------------------------------------------------------- power

    def reset(self) -> None:
        """Drop all volatile GC state (power loss / remount)."""
        geo = self.ftl.chip.geometry
        self._states = [GcState.IDLE] * geo.channels
        self._jobs = [None] * geo.channels
        self._hot_active = [None] * geo.channels
        self._heat = {}
        self._alloc_tick = {}
        self._steps_since_wear_check = [0] * geo.channels

    # --------------------------------------------------------- inspection

    def hot_active_blocks(self) -> list[int | None]:
        return list(self._hot_active)

    def job_of(self, channel: int) -> GcJob | None:
        return self._jobs[channel]

    def check_invariants(self) -> None:
        """GC-side consistency checks, called from the FTL's own."""
        ftl = self.ftl
        geo = ftl.chip.geometry
        for channel in range(geo.channels):
            hot = self._hot_active[channel]
            if hot is not None:
                if geo.channel_of_block(hot) != channel:
                    raise FtlError(f"hot active block {hot} not on channel {channel}")
                if hot == ftl._active_blocks[channel]:
                    raise FtlError(f"hot and cold streams share block {hot}")
                if hot in ftl._free_by_channel[channel]:
                    raise FtlError(f"hot active block {hot} also in the free pool")
            job = self._jobs[channel]
            if job is not None:
                if geo.channel_of_block(job.victim) != channel:
                    raise FtlError(f"GC job victim {job.victim} not on channel {channel}")
                if job.victim in ftl._free_by_channel[channel]:
                    raise FtlError(f"GC job victim {job.victim} already in the free pool")
                if job.victim in (hot, ftl._active_blocks[channel], ftl._trans_active[channel]):
                    raise FtlError(f"GC job victim {job.victim} is an active block")
                # Pages behind the cursor must have been relocated already.
                for ppn in range(job.victim * geo.pages_per_block, job.cursor):
                    if ppn in ftl._owner:
                        raise FtlError(
                            f"GC job on block {job.victim} left owned page {ppn} "
                            f"behind its cursor"
                        )
