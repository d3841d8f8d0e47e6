"""Unmapping and address-space teardown: one zap walk.

``zap_range`` is the only teardown walk.  ``munmap``, ``MADV_DONTNEED``,
``mremap`` and ``brk`` shrinking run it over their range, and process exit
(``exit_mmap``) runs it over the whole address space.  Its interaction
with shared PTE tables implements §3.3 of the paper:

* a shared table whose whole 2 MiB slot is being unmapped is released with
  a bare refcount decrement — the entries must be *preserved* because other
  processes in the fork lineage still translate through them;
* a shared table that is only partially unmapped is first copied
  (copy-on-write applied to the unmap operation itself), and the copy is
  then zapped like any dedicated table.

The walk visits PMD tables, not slots.  Each table's fully covered slots
go to one vectorised release,
:func:`~repro.kernel.fastpath.fast_exit_release_pmd_table`: shared tables
lose one reference each in a single bulk decrement, dedicated tables are
zapped and freed in address order, huge entries are zapped.  Only the at
most two partly covered edge slots take per-slot steps (THP split, the
§3.3 copy-then-zap) before their entries go through the same release.
The observer picks the batch: the release frees dedicated tables all at
once unless an observer could see the difference (a tracer, fail-points,
sanitizers, SMP, NUMA) or batching could reorder the allocator (a pfn
mapped twice, a live swap entry); then it frees them one at a time.

Teardown cost is a first-class part of the model: the paper's fuzzing
workloads are bounded by fork + child-exit, and the per-entry
``zap_pte_range`` work (refcount decrements, free batching) is what makes
classic fork's exits expensive while odfork children exit in microseconds.
"""

from __future__ import annotations
from ..sancheck.annotations import acquires, must_hold, tlb_deferred

from ..errors import InvalidArgumentError, KernelBug
from ..mem.page import HUGE_PAGE_SIZE, PAGE_SIZE
from ..paging.entries import entry_pfn, is_huge, is_present
from ..paging.table import LEVEL_PGD, LEVEL_PMD, PMD_REGION_SIZE, TABLE_SPAN
from .fastpath import fast_exit_release_pmd_table, release_leaf_tables
from .fork import iter_parent_pmd_tables
from .tableops import copy_shared_pte_table


@must_hold("mmap_lock")
@acquires("ptl")
def zap_range(kernel, mm, start, end, account_rss=True):
    """Clear all translations for ``[start, end)`` and release pages.

    Nothing is touched unless every overlapping hugetlb mapping is
    unmapped at 2 MiB granularity.  The range is shot down from every
    TLB even when the walk raises part-way (an OOM copying a shared edge
    table), so no CPU keeps a translation to a frame it already freed.
    """
    if start % PAGE_SIZE or end % PAGE_SIZE:
        raise InvalidArgumentError("zap range must be page-aligned")
    for vma in mm.vmas.overlapping(start, end):
        if vma.is_hugetlb and (max(vma.start, start) % HUGE_PAGE_SIZE
                               or min(vma.end, end) % HUGE_PAGE_SIZE):
            raise InvalidArgumentError(
                "hugetlb mappings unmap at 2 MiB granularity")
    try:
        _zap_walk(kernel, mm, start, end, account_rss)
    finally:
        # Freed frames must not stay reachable through any CPU's TLB.
        kernel.tlbs.shootdown_mm(mm, start, end)


@must_hold("mmap_lock", "ptl")
@tlb_deferred("zap_range and exit_mmap shoot down after the walk")
def _zap_walk(kernel, mm, start, end, account_rss):
    """Release ``[start, end)`` PMD table by PMD table, in address order."""
    for pmd_table, table_base in iter_parent_pmd_tables(mm, start, end):
        lo = max(start, table_base)
        hi = min(end, table_base + TABLE_SPAN[LEVEL_PMD])
        if lo >= hi:
            continue
        first = (lo - table_base) // PMD_REGION_SIZE
        stop = (hi - table_base + PMD_REGION_SIZE - 1) // PMD_REGION_SIZE
        whole_first = first + (lo % PMD_REGION_SIZE != 0)
        whole_stop = stop - (hi % PMD_REGION_SIZE != 0)
        if whole_first > first:
            _zap_edge(kernel, mm, pmd_table, table_base, first, lo, hi,
                      account_rss)
        if whole_first < whole_stop:
            fast_exit_release_pmd_table(kernel, mm, pmd_table, table_base,
                                        whole_first, whole_stop, account_rss)
        if whole_stop < stop and stop - 1 >= whole_first:
            _zap_edge(kernel, mm, pmd_table, table_base, stop - 1, lo, hi,
                      account_rss)


@must_hold("mmap_lock", "ptl")
@tlb_deferred("zap_range shoots the whole range down after the walk")
def _zap_edge(kernel, mm, pmd_table, table_base, pmd_index, lo, hi,
              account_rss):
    """Zap the part of one partly covered slot inside ``[lo, hi)``."""
    entry = pmd_table.entries[pmd_index]
    if not is_present(entry):
        return
    slot_start = table_base + pmd_index * PMD_REGION_SIZE
    if is_huge(entry):
        # hugetlb ranges were checked whole up front, so this is a THP
        # region: split back to 4 KiB pages, then zap the leaf table.
        from .thp import split_huge_entry
        split_huge_entry(kernel, mm, pmd_table, pmd_index, slot_start)
        entry = pmd_table.entries[pmd_index]
    if kernel.pages.pt_ref(int(entry_pfn(entry))) > 1:
        # §3.3 slow path: other VMAs of this process still live under
        # this table, so take a private copy before clearing entries.
        copy_shared_pte_table(kernel, mm, pmd_table, pmd_index, slot_start)
    release_leaf_tables(
        kernel, mm, pmd_table, [pmd_index], account_rss,
        (max(lo, slot_start) - slot_start) // PAGE_SIZE,
        (min(hi, slot_start + PMD_REGION_SIZE) - slot_start) // PAGE_SIZE)


@acquires("mmap_lock", "ptl")
def exit_mmap(kernel, mm):
    """Tear down an entire address space on process exit."""
    if mm.dead:
        raise KernelBug("exit_mmap on a dead mm")
    _zap_walk(kernel, mm, 0, TABLE_SPAN[LEVEL_PGD], account_rss=False)
    for vma in list(mm.vmas):
        mm.remove_vma(vma)
    # All leaf tables are gone; release the upper levels.
    uppers = mm.upper_tables()
    for table in uppers:
        if table.level == LEVEL_PMD and not table.is_empty():
            raise KernelBug("leaf table leaked past exit_mmap")
        mm.free_table_frame(table)
    kernel.cost.charge_table_free(len(uppers))
    mm.free_table_frame(mm.pgd)
    kernel.cost.charge_table_free()
    mm.nr_upper_tables = 0
    mm.rss_anon_pages = 0
    mm.rss_file_pages = 0
    mm.dead = True
    if mm.nr_pte_tables != 0:
        raise KernelBug(f"PTE-table accounting leak at exit: {mm.nr_pte_tables}")
    kernel.tlbs.shootdown_mm(mm, charge=False)
