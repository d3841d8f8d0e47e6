"""Anonymous reverse mapping (rmap).

To evict a frame, reclaim must find and clear *every* PTE that maps it.
The kernel records, per anonymous order-0 frame, which leaf tables map
it and how many of that table's entries do (the per-page ``mapcount``).
Back-pointers are added at fault time, fork time (classic fork's table
copies), table-COW time, and THP splits, and dropped wherever entries
are zapped — the auditor recomputes the whole structure from the live
page tables after every test.

The interesting case is the paper's: a victim mapped through a PTE
table *shared* by on-demand-fork.  :func:`try_to_unmap` does not
unshare — one back-pointer covers every sharer, and editing the shared
table in place unmaps the page from all of them at once (each sharer's
RSS shrinks and its TLB is flushed via the ``pt_sharers`` registry).
The in-place edit is the cheap side of the unshare-or-edit decision;
each shared table touched is counted in ``shared_table_unmaps`` and
charged to the cost model so benchmarks see the price.

File-backed pages never enter the rmap: the page cache owns them and
clean-cache reclaim handles their eviction separately.
"""

from __future__ import annotations
from ..sancheck.annotations import charge_deferred, must_hold

import numpy as np

from ..errors import KernelBug
from ..mem.page import PG_ANON, PG_COMPOUND_HEAD, PG_COMPOUND_TAIL, PG_FILE
from ..paging.entries import (
    BIT_ACCESSED,
    entry_pfn,
    make_swap_entry,
    present_mask,
)

_INELIGIBLE = np.uint16(PG_FILE | PG_COMPOUND_HEAD | PG_COMPOUND_TAIL)
_ANON = np.uint16(PG_ANON)


class AnonRmap:
    """pfn -> {leaf table pfn: number of entries mapping it}."""

    def __init__(self):
        self._tables = {}

    def mapcount(self, pfn):
        d = self._tables.get(pfn)
        return sum(d.values()) if d else 0

    def tables_for(self, pfn):
        """Leaf-table pfns mapping ``pfn`` (a copy, safe to mutate under)."""
        return list(self._tables.get(pfn, ()))

    def table_refs(self, pfn, leaf_pfn):
        d = self._tables.get(pfn)
        return d.get(leaf_pfn, 0) if d else 0

    def add(self, pfn, leaf_pfn, n=1):
        """Record ``n`` more mappings; returns True on the 0 -> mapped edge."""
        d = self._tables.get(pfn)
        if d is None:
            d = self._tables[pfn] = {}
            first = True
        else:
            first = False
        d[leaf_pfn] = d.get(leaf_pfn, 0) + n
        return first

    def remove(self, pfn, leaf_pfn, n=1):
        """Drop ``n`` mappings; returns True on the mapped -> 0 edge."""
        d = self._tables.get(pfn)
        if d is None or leaf_pfn not in d:
            raise KernelBug(f"rmap: pfn {pfn} has no entry for table {leaf_pfn}")
        remaining = d[leaf_pfn] - n
        if remaining < 0:
            raise KernelBug(f"rmap underflow: pfn {pfn} table {leaf_pfn}")
        if remaining:
            d[leaf_pfn] = remaining
        else:
            del d[leaf_pfn]
        if not d:
            del self._tables[pfn]
            return True
        return False

    def move(self, pfn, old_leaf_pfn, new_leaf_pfn, n=1):
        """Retarget ``n`` mappings to another table (mremap entry moves)."""
        self.remove(pfn, old_leaf_pfn, n)
        self.add(pfn, new_leaf_pfn, n)

    def tracked_pfns(self):
        return self._tables.keys()

    def table_items(self, pfn):
        d = self._tables.get(pfn)
        return list(d.items()) if d else []


def _eligible_mask(pages, pfns):
    flags = pages.flags[pfns]
    return ((flags & _ANON) != 0) & ((flags & _INELIGIBLE) == 0)


def rmap_add(kernel, pfn, leaf_pfn):
    """One new mapping of ``pfn`` from ``leaf_pfn`` (fault-time hook)."""
    rmap = kernel.rmap
    if rmap is None:
        return
    flags = int(kernel.pages.flags[pfn])
    if not (flags & PG_ANON) or flags & _INELIGIBLE:
        return
    if rmap.add(pfn, leaf_pfn):
        kernel.reclaim.lru_add(pfn)


def rmap_remove(kernel, pfn, leaf_pfn):
    """One mapping of ``pfn`` gone (COW replacement, zap of one entry)."""
    rmap = kernel.rmap
    if rmap is None:
        return
    flags = int(kernel.pages.flags[pfn])
    if not (flags & PG_ANON) or flags & _INELIGIBLE:
        return
    if rmap.remove(pfn, leaf_pfn):
        kernel.reclaim.lru_remove(pfn)


def rmap_add_bulk(kernel, pfns, leaf_pfn):
    """Record mappings for every eligible pfn in ``pfns`` (fork, fills)."""
    rmap = kernel.rmap
    if rmap is None or len(pfns) == 0:
        return
    if len(pfns) == 1:  # a one-page fault: the scalar path is cheaper
        rmap_add(kernel, int(pfns[0]), leaf_pfn)
        return
    pfns = np.asarray(pfns, dtype=np.int64)
    mask = _eligible_mask(kernel.pages, pfns)
    reclaim = kernel.reclaim
    for pfn in pfns[mask].tolist():
        if rmap.add(pfn, leaf_pfn):
            reclaim.lru_add(pfn)


def rmap_remove_bulk(kernel, pfns, leaf_pfn):
    """Drop mappings for every eligible pfn in ``pfns`` (zap, teardown)."""
    rmap = kernel.rmap
    if rmap is None or len(pfns) == 0:
        return
    if len(pfns) == 1:  # a one-page fault: the scalar path is cheaper
        rmap_remove(kernel, int(pfns[0]), leaf_pfn)
        return
    pfns = np.asarray(pfns, dtype=np.int64)
    mask = _eligible_mask(kernel.pages, pfns)
    reclaim = kernel.reclaim
    for pfn in pfns[mask].tolist():
        if rmap.remove(pfn, leaf_pfn):
            reclaim.lru_remove(pfn)


def rmap_move(kernel, pfn, old_leaf_pfn, new_leaf_pfn):
    """Retarget one mapping when an entry migrates between tables."""
    rmap = kernel.rmap
    if rmap is None:
        return
    flags = int(kernel.pages.flags[pfn])
    if not (flags & PG_ANON) or flags & _INELIGIBLE:
        return
    rmap.move(pfn, old_leaf_pfn, new_leaf_pfn)


@charge_deferred("the LRU aging loops charge charge_lru_scan per probe")
def test_and_clear_referenced(kernel, pfn):
    """Aging probe: was any PTE mapping ``pfn`` accessed since last clear?

    Clears the accessed bits it finds (in place, even in shared tables —
    an attribute edit is invisible to the sharers' semantics, so no
    unshare decision applies here).
    """
    referenced = False
    target = np.uint64(pfn)
    for leaf_pfn, _count in kernel.rmap.table_items(pfn):
        leaf = kernel.resolve_table(leaf_pfn)
        entries = leaf.entries
        match = present_mask(entries) & (entry_pfn(entries) == target)
        if not match.any():
            raise KernelBug(f"rmap points at table {leaf_pfn} with no PTE for {pfn}")
        if (entries[match] & BIT_ACCESSED).any():
            referenced = True
            entries[match] &= ~BIT_ACCESSED
    return referenced


@charge_deferred("frame release is priced by the zap/unmap cost models "
                 "at the call site")
def free_one_anon_frame(kernel, pfn):
    """Free one anonymous frame whose refcount reached zero."""
    if kernel.pages.flags[pfn] & PG_FILE:
        raise KernelBug("file page refcount dropped to zero outside the cache")
    kernel.pages.on_free(pfn)
    kernel.phys.zero(pfn)
    kernel.allocator.free(pfn, 0)


@must_hold("ptl")
def try_to_unmap(kernel, pfn, slot):
    """Replace every PTE mapping ``pfn`` with the swap entry for ``slot``.

    Each referencing table — dedicated or fork-shared — is edited in
    place; a shared table's edit unmaps the page from all sharers at
    once (one swap reference per table *object*, matching the ownership
    rule).  Every affected mm loses the page from its RSS and gets a
    full TLB flush.  Returns the page's remaining refcount (0 unless a
    swap-cache entry, snapshot, or pin still holds it); the frame is
    freed here when it hits zero.
    """
    rmap = kernel.rmap
    entry_value = make_swap_entry(slot)
    target = np.uint64(pfn)
    total = 0
    for leaf_pfn in rmap.tables_for(pfn):
        leaf = kernel.resolve_table(leaf_pfn)
        kernel.san_access("pt", leaf_pfn)
        entries = leaf.entries
        match = present_mask(entries) & (entry_pfn(entries) == target)
        n = int(np.count_nonzero(match))
        if n == 0:
            raise KernelBug(f"rmap points at table {leaf_pfn} with no PTE for {pfn}")
        entries[match] = entry_value
        kernel.swap_dup(slot, n)
        if kernel.pages.pt_ref(leaf_pfn) > 1:
            # The unshare-or-edit decision: edit in place, charge for it.
            kernel.stats.shared_table_unmaps += 1
            kernel.cost.charge_shared_table_unmap()
        sharers = list(kernel.pt_sharers.get(leaf_pfn, ()))
        for mm in sharers:
            mm.sub_rss(n, file_backed=False)
        # Unmapping changes translations under every sharer at once, and
        # any vCPU running one of them must be interrupted too.
        kernel.tlbs.shootdown_sharers(leaf_pfn, mms=sharers)
        if rmap.remove(pfn, leaf_pfn, n):
            kernel.reclaim.lru_remove(pfn)
        total += n
    kernel.cost.charge_rmap_unmap(total)
    remaining = kernel.pages.get_ref(pfn)
    for _ in range(total):
        remaining = kernel.pages.ref_dec(pfn)
    if remaining == 0:
        free_one_anon_frame(kernel, pfn)
    return remaining
