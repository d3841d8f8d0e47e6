"""Whole-table entry points: the classic fork copy and the exit release.

Fork and exit each have one implementation, a vectorised walk over a
range of PMD slots (:func:`~repro.kernel.fork.copy_pmd_range`,
:func:`~repro.kernel.odfork.share_pmd_range` and the release below).
What varies is the range size, and only observable state picks it
(:func:`needs_slot_ranges`): the tracer, fail-points (recording or
armed), KASAN/KCSAN, the SMP scheduler and NUMA each see the per-slot
order, so while any of them is attached the walk runs one 2 MiB slot
per range, in exactly the order they observe.  Otherwise it runs whole
tables.  Both sizes reach bit-identical clocks, stats, RSS, digests,
noise-RNG state and buddy free lists, because:

* **charges** are queued in per-slot order and flushed through
  ``charge_many``, which consumes the same noise draws at the same
  buffer-refill boundaries and rounds each event half-even on its own;
* **allocator calls** keep per-slot order: leaf tables are allocated in
  address order, and each dead leaf table's frees run together with its
  frame free;
* **reclaim cannot interleave**: whole-table copies engage only when the
  headroom rule proves no allocation can wake kswapd or enter reclaim.

``tests/test_vectorized_equivalence.py`` and ``repro.verify
--equivalence`` pin this by running each scenario with and without
fail-points recording (one-slot ranges vs whole tables).
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelBug
from ..mem.page import PG_FILE
from ..paging.entries import (
    BIT_PS,
    ENTRY_NONE,
    entry_pfn,
    present_mask,
    swap_mask,
)
from ..paging.table import (
    LEVEL_PGD,
    LEVEL_PMD,
    LEVEL_SPAN,
    PMD_REGION_SIZE,
    TABLE_SPAN,
)
from ..timing.costs import FN_TABLE_FREE, FN_TABLE_UNSHARE_DEC, FN_ZAP_PTE
from ..trace import points
from .fork import (
    begin_classic_copy,
    copy_pmd_range,
    finish_classic_copy,
    iter_parent_pmd_tables,
)
from .rmap import rmap_remove_bulk
from ..sancheck.annotations import acquires, must_hold, tlb_deferred
from .tableops import drop_table_sharer, put_pte_table
from .teardown import _zap_dedicated_entries, _zap_huge

# charge_many id table for a batch of released leaf tables.
_EXIT_FNS = [FN_ZAP_PTE, FN_TABLE_UNSHARE_DEC, FN_TABLE_FREE]


def needs_slot_ranges(kernel):
    """Whether an attached observer needs one 2 MiB slot per range."""
    return (
        points.enabled
        or kernel.failpoints.active
        or kernel.smp is not None
        or kernel.san is not None
        or getattr(kernel.allocator, "sanitizer", None) is not None
        or kernel.phys.sanitizer is not None
        or kernel.numa is not None
    )


def _fork_headroom_ok(kernel, needed):
    """Prove a whole-table copy finishes without reclaim side effects.

    ``_maybe_wake_kswapd`` fires when ``free - 1 < wm_low`` before an
    order-0 allocation; after ``needed - 1`` successful allocations the
    tightest check is ``free - needed >= wm_low``.  Without a reclaim
    subsystem any free frame satisfies an order-0 request, so
    ``free >= needed`` suffices.
    """
    free = kernel.allocator.free_frames
    reclaim = kernel.reclaim
    if reclaim is not None:
        return free - needed >= reclaim.wm_low
    return free >= needed


def _has_duplicates(pfns):
    if len(pfns) < 2:
        return False
    ordered = np.sort(pfns)
    return bool((ordered[1:] == ordered[:-1]).any())


# ---------------------------------------------------------------------------
# classic fork
# ---------------------------------------------------------------------------

@must_hold("mmap_lock")
@acquires("ptl")
def fast_copy_mm_classic(kernel, parent_mm, child_mm):
    """Classic fork copy with whole-table ranges; True when it copied.

    False means one-slot ranges are required (an observer is attached or
    the headroom rule cannot prove the copy avoids reclaim), nothing was
    mutated, and the caller runs :func:`~repro.kernel.fork.copy_mm_classic`.
    """
    if needs_slot_ranges(kernel):
        return False
    # Read-only pre-scan: the frames the copy will allocate (one leaf
    # table per leaf slot, one PMD table per parent table, one PUD table
    # per PGD entry).
    tables = []
    needed = 0
    pud_keys = set()
    for pmd, base in iter_parent_pmd_tables(parent_mm):
        entries = pmd.entries
        present = present_mask(entries)
        if not present.any():
            continue
        tables.append((pmd, base))
        needed += 1 + int(np.count_nonzero(
            present & ((entries & BIT_PS) == ENTRY_NONE)))
        pud_keys.add(base // LEVEL_SPAN[LEVEL_PGD])
    if not _fork_headroom_ok(kernel, needed + len(pud_keys)):
        return False

    builder = begin_classic_copy(kernel, parent_mm, child_mm)
    n_leaf = n_huge = 0
    for pmd, base in tables:
        leaf, huge = copy_pmd_range(kernel, parent_mm, child_mm, builder, pmd,
                                    base, base + TABLE_SPAN[LEVEL_PMD])
        n_leaf += leaf
        n_huge += huge
    finish_classic_copy(kernel, parent_mm, child_mm, builder, n_leaf, n_huge)
    return True


# ---------------------------------------------------------------------------
# exit teardown
# ---------------------------------------------------------------------------

@must_hold("mmap_lock", "ptl")
@tlb_deferred("exit_mmap shoots the dying mm down once after the walk")
def fast_exit_release_pmd_table(kernel, mm, pmd_table, table_base):
    """Release every mapping one PMD table of a dying mm reaches.

    Only safe on the exit path: the whole address space is going away,
    so RSS is not accounted per table.  Shared leaf tables lose one
    reference each, dedicated ones are zapped and freed, huge entries
    are zapped.  Always returns True.
    """
    entries = pmd_table.entries
    present = present_mask(entries)
    if not present.any():
        return True
    huge = (entries & BIT_PS) != ENTRY_NONE
    leaf_positions = np.nonzero(present & ~huge)[0]
    if len(leaf_positions):
        pfns = entry_pfn(entries[leaf_positions]).astype(np.int64)
        surviving = kernel.pages.pt_refcount[pfns] > 1
        if surviving.any():
            # Shared leaf tables: one refcount decrement each, entries
            # preserved for the other sharers (§3.3).
            n_put = int(np.count_nonzero(surviving))
            for leaf_pfn in pfns[surviving].tolist():
                drop_table_sharer(kernel, leaf_pfn, mm)
            kernel.pages.pt_refcount[pfns[surviving]] -= 1
            entries[leaf_positions[surviving]] = ENTRY_NONE
            mm.nr_pte_tables -= n_put
            kernel.cost.charge_table_put(n_put)
        dead_positions = leaf_positions[~surviving]
        if len(dead_positions):
            _release_leaf_tables(
                kernel, mm,
                [kernel.resolve_table(pfn) for pfn in pfns[~surviving].tolist()],
                (table_base + dead_positions * PMD_REGION_SIZE).tolist())
            # sancheck: ignore[clock-charge] -- _release_leaf_tables charges zap/put/free for every dead table; the PMD-entry clear itself is below resolution
            entries[dead_positions] = ENTRY_NONE
            mm.nr_pte_tables -= len(dead_positions)
    for position in np.nonzero(present & huge)[0].tolist():
        slot_start = table_base + position * PMD_REGION_SIZE
        _zap_huge(kernel, mm, pmd_table, position, slot_start, slot_start,
                  slot_start + PMD_REGION_SIZE, account_rss=False)
    return True


@must_hold("mmap_lock", "ptl")
@tlb_deferred("exit_mmap shoots the dying mm down once after the walk")
def _release_leaf_tables(kernel, mm, tables, slot_starts):
    """Zap and free a dying mm's dedicated leaf tables, in address order.

    Each table's rmap removal, page-reference drop, frees, swap-slot puts
    and frame free run together, so a page's last free lands in the same
    ``free_bulk`` batch as in ``zap_pte_range``.  The work is batched
    across all tables only when a read-only pre-scan proves batching
    cannot reorder an allocator call or an observed event: no observer
    is attached, no pfn appears twice (its last reference would drop in
    another table's turn), and no swap entry is live (releasing its slot
    can free a swap-cache frame).  Otherwise the tables go one at a time
    through :func:`~repro.kernel.teardown.zap_range`'s own per-slot
    release.
    """
    rows = np.fromiter((t.row for t in tables), dtype=np.int64,
                       count=len(tables))
    matrix = kernel.entry_store.gather(rows)
    pres = present_mask(matrix)
    pfns = entry_pfn(matrix[pres]).astype(np.int64)
    if (needs_slot_ranges(kernel) or _has_duplicates(pfns)
            or (kernel.swap is not None and swap_mask(matrix).any())):
        for table, slot_start in zip(tables, slot_starts):
            _zap_dedicated_entries(kernel, mm, table, slot_start, slot_start,
                                   slot_start + PMD_REGION_SIZE,
                                   account_rss=False)
            put_pte_table(kernel, mm, table, account_rss=False)
        return

    pages = kernel.pages
    allocator = kernel.allocator
    counts = pres.sum(axis=1).astype(np.int64)
    ends = np.cumsum(counts).tolist()
    starts = [end - n for end, n in zip(ends, counts.tolist())]
    if kernel.rmap is not None:
        # Reverse mappings first: eligibility reads page flags, which
        # the metadata reset below clears.
        for table, lo, hi in zip(tables, starts, ends):
            rmap_remove_bulk(kernel, pfns[lo:hi], table.pfn)
    pages.refcount[pfns] -= 1
    newrefs = pages.refcount[pfns]
    if np.any(newrefs < 0):
        raise KernelBug(
            f"page refcount underflow on pfns {pfns[newrefs < 0][:8].tolist()}")
    last_ref = newrefs == 0
    zeroed = pfns[last_ref]
    if np.any(pages.flags[zeroed] & PG_FILE):
        raise KernelBug("file page refcount dropped to zero outside the cache")
    pages.on_free_bulk(zeroed)
    for table, lo, hi in zip(tables, starts, ends):
        freed = pfns[lo:hi][last_ref[lo:hi]]
        if len(freed):
            # free_bulk sorts internally, and without a sanitizer the
            # order of a batch does not matter.
            allocator.free_bulk(freed)
        drop_table_sharer(kernel, table.pfn, mm)
        kernel.pt_sharers.pop(table.pfn, None)
        kernel.unregister_table(table)  # re-zeroes the packed row
        allocator.free(table.pfn, 0)
    dead_pfns = np.fromiter((t.pfn for t in tables), dtype=np.int64,
                            count=len(tables))
    kernel.phys.zero_bulk(np.concatenate([zeroed, dead_pfns]))
    pages.on_free_bulk(dead_pfns)
    # zap + put + free per table, in table order: one charge_many.
    p = kernel.cost.params
    ns = np.empty((len(tables), 3), dtype=np.float64)
    ns[:, 0] = p.zap_per_pte * counts.astype(np.float64)
    ns[:, 1] = p.odf_table_put
    ns[:, 2] = p.table_free
    ids = np.broadcast_to(np.arange(3, dtype=np.int64), ns.shape)
    kernel.cost.charge_many(ids, ns, _EXIT_FNS)
