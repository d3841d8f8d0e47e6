"""Whole-table entry points: the classic fork copy and the teardown release.

Fork has one implementation, a vectorised walk over a range of PMD
slots (:func:`~repro.kernel.fork.copy_pmd_range`,
:func:`~repro.kernel.odfork.share_pmd_range`); what varies is the range
size, and only observable state picks it (:func:`needs_slot_ranges`):
the tracer, fail-points (recording or armed), KASAN/KCSAN, the SMP
scheduler and NUMA each see the per-slot order, so while any of them is
attached the walk runs one 2 MiB slot per range, in exactly the order
they observe.  Otherwise it runs whole tables.

Teardown has one zap walk (:func:`~repro.kernel.teardown.zap_range`, for
munmap, MADV_DONTNEED, mremap/brk shrinking and exit), whose release of
wholly unmapped slots is :func:`fast_exit_release_pmd_table`.  There the
observer picks the batch: :func:`release_leaf_tables` frees dedicated
leaf tables all at once, or, while an observer is attached (or a pfn is
mapped twice, or a swap entry is live), runs the same code one table at
a time.  Both sizes reach bit-identical clocks, stats, RSS, digests,
noise-RNG state and buddy free lists, because:

* **charges** are queued in per-slot order and flushed through
  ``charge_many``, which consumes the same noise draws at the same
  buffer-refill boundaries and rounds each event half-even on its own;
* **allocator calls** keep per-slot order: a range's leaf tables are
  allocated as one batch whose frames are exactly those per-table
  allocations would get (``BuddyAllocator.alloc_order0``), and a batch
  of dead leaf tables goes back with each table's data frees just
  before its frame free (``MMStruct.free_tables``);
* **reclaim cannot interleave**: whole-table copies engage only when the
  headroom rule proves no allocation can wake kswapd or enter reclaim.

``tests/test_vectorized_equivalence.py`` and ``repro.verify
--equivalence`` pin this by running each scenario with and without
fail-points recording (one-slot ranges and batches of one vs whole
tables).
"""
from __future__ import annotations

import numpy as np

from ..errors import KernelBug
from ..mem.page import HUGE_PAGE_ORDER, PG_FILE, PTRS_PER_TABLE, has_duplicates
from ..paging.entries import (
    BIT_PS,
    ENTRY_NONE,
    entry_pfn,
    present_mask,
    present_pfns,
    swap_mask,
)
from ..paging.table import LEVEL_PGD, LEVEL_PMD, LEVEL_SPAN, TABLE_SPAN
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
from .tableops import count_file_pages, drop_table_sharer

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
# teardown release
# ---------------------------------------------------------------------------

@must_hold("mmap_lock", "ptl")
@tlb_deferred("zap_range shoots the range down once after the walk")
def fast_exit_release_pmd_table(kernel, mm, pmd_table, table_base, first=0,
                                stop=PTRS_PER_TABLE, account_rss=False):
    """Release every mapping of the wholly unmapped slots ``[first, stop)``.

    Shared leaf tables lose one reference each in a single bulk
    decrement, their entries preserved for the other sharers (§3.3);
    dedicated ones go to :func:`release_leaf_tables`; huge entries are
    zapped.  ``account_rss`` shrinks the mm's RSS by what the slots
    mapped (exit skips it: the whole address space goes).  Always
    returns True.
    """
    entries = pmd_table.entries
    window = entries[first:stop]
    present = present_mask(window)
    if not present.any():
        return True
    huge = (window & BIT_PS) != ENTRY_NONE
    leaf_positions = np.nonzero(present & ~huge)[0] + first
    if len(leaf_positions):
        pfns = entry_pfn(entries[leaf_positions]).astype(np.int64)
        surviving = kernel.pages.pt_refcount[pfns] > 1
        if surviving.any():
            shared = pfns[surviving]
            if account_rss:
                matrix = kernel.entry_store.gather(
                    [kernel.resolve_table(pfn).row for pfn in shared.tolist()])
                _sub_rss(kernel, mm, entry_pfn(
                    matrix[present_mask(matrix)]).astype(np.int64))
            for leaf_pfn in shared.tolist():
                drop_table_sharer(kernel, leaf_pfn, mm)
            kernel.pages.pt_refcount[shared] -= 1
            entries[leaf_positions[surviving]] = ENTRY_NONE
            mm.nr_pte_tables -= len(shared)
            kernel.cost.charge_table_put(len(shared))
        release_leaf_tables(kernel, mm, pmd_table,
                            leaf_positions[~surviving].tolist(), account_rss)
    for position in (np.nonzero(present & huge)[0] + first).tolist():
        _zap_huge(kernel, mm, pmd_table, position, account_rss)
    return True


def _sub_rss(kernel, mm, pfns):
    n_file = count_file_pages(kernel, pfns)
    mm.sub_rss(n_file, file_backed=True)
    mm.sub_rss(len(pfns) - n_file, file_backed=False)


@must_hold("mmap_lock", "ptl")
@tlb_deferred("zap_range shoots the range down once after the walk")
def _zap_huge(kernel, mm, pmd_table, pmd_index, account_rss):
    head = int(entry_pfn(pmd_table.entries[pmd_index]))
    pmd_table.clear(pmd_index)
    if account_rss:
        mm.sub_rss(1 << HUGE_PAGE_ORDER, file_backed=False)
    kernel.cost.charge_zap_entries(1)
    if kernel.pages.ref_dec(head) == 0:
        kernel.free_huge_frame(head)


@must_hold("mmap_lock", "ptl")
@tlb_deferred("zap_range shoots the range down once after the walk")
def release_leaf_tables(kernel, mm, pmd_table, positions, account_rss=False,
                        lo=0, hi=PTRS_PER_TABLE):
    """Zap entries ``[lo, hi)`` of dedicated leaf tables; free emptied ones.

    ``positions`` are ``pmd_table`` indices in address order; a freed
    table's PMD entry is cleared.  Each table's rmap removal, page
    reference drop, frees, swap-slot puts and frame free run together,
    so a page's last free lands in the same ``free_bulk`` batch as in
    ``zap_pte_range``.  The work is batched across all tables only when
    a read-only pre-scan proves batching cannot reorder an allocator
    call or an observed event: no observer is attached, no pfn appears
    twice (its last reference would drop in another table's turn), and
    no swap entry is live (releasing its slot can free a swap-cache
    frame).  Otherwise the same code runs with a batch of one table.
    """
    if not positions:
        return
    tables = [kernel.resolve_table(pfn) for pfn in
              entry_pfn(pmd_table.entries[positions]).tolist()]
    rows = np.fromiter((t.row for t in tables), dtype=np.int64,
                       count=len(tables))
    matrix = kernel.entry_store.gather(rows)[:, lo:hi]
    pres = present_mask(matrix)
    pfns = present_pfns(matrix, pres)
    if account_rss:
        _sub_rss(kernel, mm, pfns)
    # Table i's present pfns are pfns[bounds[i]:bounds[i + 1]].
    bounds = np.zeros(len(tables) + 1, dtype=np.int64)
    np.cumsum(pres.sum(axis=1), out=bounds[1:])
    duplicates = has_duplicates(pfns)
    if (needs_slot_ranges(kernel) or duplicates
            or (kernel.swap is not None and swap_mask(matrix).any())):
        for i, position in enumerate(positions):
            _release_batch(kernel, mm, pmd_table, [position], tables[i:i + 1],
                           pfns, bounds[i:i + 2], duplicates, lo, hi)
    else:
        _release_batch(kernel, mm, pmd_table, positions, tables, pfns,
                       bounds, False, lo, hi)


@must_hold("mmap_lock", "ptl")
@tlb_deferred("zap_range shoots the range down once after the walk")
def _release_batch(kernel, mm, pmd_table, positions, tables, pfns, bounds,
                   duplicates, lo, hi):
    """Release ``tables`` (at ``pmd_table`` indices ``positions``) whose
    present pfns are ``pfns[bounds[i]:bounds[i + 1]]``."""
    pages = kernel.pages
    batch = pfns[bounds[0]:bounds[-1]]
    if kernel.rmap is not None:
        # Reverse mappings first: eligibility reads page flags, which
        # the metadata reset below clears.
        rmap_remove_bulk(kernel, batch, duplicates)
    if duplicates:
        np.add.at(pages.refcount, batch, -1)
    else:
        pages.refcount[batch] -= 1
    newrefs = pages.refcount[batch]
    if np.any(newrefs < 0):
        raise KernelBug(
            f"page refcount underflow on pfns {batch[newrefs < 0][:8].tolist()}")
    last_ref = newrefs == 0
    zeroed = batch[last_ref]
    if len(tables) == 1:
        # One table frees each page once, in pfn order (the order a
        # sanitizer's quarantine sees).
        zeroed = np.unique(zeroed)
    if np.any(pages.flags[zeroed] & PG_FILE):
        raise KernelBug("file page refcount dropped to zero outside the cache")
    pages.on_free_bulk(zeroed)
    kernel.phys.zero_bulk(zeroed)
    if len(tables) == 1:
        # A lone table may be watched: each event is charged where the
        # per-table order puts it.
        table = tables[0]
        if len(zeroed):
            kernel.allocator.free_bulk(zeroed)
        kernel.cost.charge_zap_entries(len(batch))
        kernel.swap_put_entries(table.entries[lo:hi])
        table.entries[lo:hi] = ENTRY_NONE
        if hi > lo:
            kernel.note_table_write(table, hi - lo)
        if not table.is_empty():
            return
        pmd_table.entries[positions[0]] = ENTRY_NONE
        mm.nr_pte_tables -= 1
        kernel.cost.charge_table_put()
        kernel.cost.charge_table_free()
        drop_table_sharer(kernel, table.pfn, mm)
        mm.free_table_frame(table)
        return
    # Nothing watches a batch: every table empties and goes.
    pmd_table.entries[positions] = ENTRY_NONE
    mm.nr_pte_tables -= len(tables)
    for table in tables:
        drop_table_sharer(kernel, table.pfn, mm)
    # Only the tables that free data pages get a slice of ``zeroed``
    # (batch order, so each table's frees are one run of it).
    owner = np.searchsorted(bounds, np.flatnonzero(last_ref) + bounds[0],
                            side="right") - 1
    owners, starts = np.unique(owner, return_index=True)
    ends = np.append(starts[1:], len(zeroed))
    mm.free_tables(tables, {i: zeroed[start:end] for i, start, end
                            in zip(owners.tolist(), starts.tolist(),
                                   ends.tolist())})
    # Zap + put + free per table, in table order, as one charge_many.
    p = kernel.cost.params
    ns = np.empty((len(tables), 3), dtype=np.float64)
    ns[:, 0] = p.zap_per_pte * np.diff(bounds)
    ns[:, 1] = p.odf_table_put
    ns[:, 2] = p.table_free
    ids = np.broadcast_to(np.arange(3, dtype=np.int64), ns.shape)
    kernel.cost.charge_many(ids, ns, _EXIT_FNS)
