"""Flash and FTL I/O statistics.

The paper's Table 1 and Figure 6 report FTL-side counters (page writes and
reads including internal copybacks, garbage-collection invocations, block
erases).  :class:`FlashStats` is the single accumulator both the raw chip and
the FTL write into, so a benchmark can snapshot/delta it around a workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import CounterSet


@dataclass
class FlashStats(CounterSet):
    """Counters across the flash stack.

    Chip-level (raw NAND operations):
        page_reads, page_programs, block_erases

    FTL-level breakdown (subsets/causes of the chip-level counts):
        host_page_writes: programs triggered directly by host write commands
        host_page_reads: reads triggered directly by host read commands
        gc_copyback_reads / gc_copyback_writes: valid-page moves during GC
        gc_invocations: victim blocks garbage-collected
        map_page_writes: mapping-table (L2P) pages persisted on barriers
        xl2p_page_writes: X-L2P table pages persisted on transaction commits
        barriers: flush/barrier commands processed
        commits / aborts: transactional commands processed (X-FTL only)
        xl2p_flushes: X-L2P CoW table flushes (one per commit sweep; group
            commit amortizes one flush over many commits)
        group_commits: commit sweeps that served two or more transactions
        gc_urgent_collections: background-GC victims collected synchronously
            at the headroom floor (each is a foreground pause; the inline
            collector does not count here — all of its work is foreground)
        gc_wear_migrations: wear-leveling jobs that migrated a low-erase
            block's contents into the cold stream
        cmt_hits: CMT lookups served from a resident translation page
        cmt_misses: CMT lookups that demand-paged a translation page in
        cmt_fetch_reads: translation-page reads performed by CMT misses
            (a miss on a never-persisted page costs no read)
        cmt_evictions: resident translation pages evicted to make room
        cmt_writebacks: translation pages programmed outside barriers —
            dirty evictions, dirty-batch companions and commit pinning
            (each also counts into map_page_writes / page_programs)
        gc_translation_collections: GC victims that were translation-stream
            blocks (Dayan & Bonnet's translation-block victim accounting)
    """

    page_reads: int = 0
    page_programs: int = 0
    block_erases: int = 0

    host_page_writes: int = 0
    host_page_reads: int = 0
    gc_copyback_reads: int = 0
    gc_copyback_writes: int = 0
    gc_invocations: int = 0
    map_page_writes: int = 0
    xl2p_page_writes: int = 0
    barriers: int = 0
    commits: int = 0
    aborts: int = 0
    xl2p_flushes: int = 0
    group_commits: int = 0
    gc_urgent_collections: int = 0
    gc_wear_migrations: int = 0
    cmt_hits: int = 0
    cmt_misses: int = 0
    cmt_fetch_reads: int = 0
    cmt_evictions: int = 0
    cmt_writebacks: int = 0
    gc_translation_collections: int = 0
