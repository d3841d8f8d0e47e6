"""Anonymous reverse mapping (rmap): packed per-frame arrays.

To evict a frame, reclaim must find and clear *every* PTE that maps it.
The kernel keeps Linux's two halves of that job apart:

* **Hot path — a per-frame count.**  ``mapcount[pfn]`` is the number of
  PTEs mapping an anonymous order-0 frame, counted once per leaf-table
  *object* (a table odfork shares among several processes counts once),
  like ``page->_mapcount``.  Faults, fork's table copies, table COW, THP
  splits, snapshot restores and every zap update it with one fancy-index
  add per batch (``np.add.at`` only when the caller knows the batch
  holds a pfn twice); fork and table COW, whose copies map every frame
  at the entry it already occupies, move only the count.  Its
  0 <-> mapped edges put the frame on and take it off the LRU lists, in
  first-occurrence order.
* **Cold path — a lookup from live entries.**  ``index[pfn]`` is the
  entry index, inside its leaf table, where the frame was first mapped;
  fork and table COW copy entries to the same index, so every mapping
  sits in that column unless the frame is ``scattered`` (mapped at two
  different indices — an mremap to another in-table offset).  The flag
  clears when the count returns to 0, or when a counted lookup finds
  every remaining mapping in one column and re-packs the frame there.
  This is the model's ``anon_vma`` + ``page->index``.  :meth:`AnonRmap.tables_for` reads that
  column of every live leaf table's row in the machine-wide
  :class:`~repro.paging.store.EntryStore` (every column of every row for
  a scattered frame) and returns the tables whose entry maps the frame,
  in table creation order.  Only reclaim's unmap and aging probe, and
  the SMP kswapd flow, look frames up; the lookups are counted.

The live leaf tables are the keys of ``pt_sharers`` (registered at
allocation, in creation order; ``kernel.leaf_generation`` counts the
changes, so the lookup rebuilds its row list only after a leaf table
came or went); Mitosis replicas live outside the store and are never
scanned.  Because the lookup reads live entries, no allocation — hence
no direct reclaim — may run between a batch's entry writes and its rmap
update; every caller keeps that order.

The interesting case is the paper's: a victim mapped through a PTE
table *shared* by on-demand-fork.  :func:`try_to_unmap` does not
unshare — the one table found covers every sharer, and editing the
shared table in place unmaps the page from all of them at once (each
sharer's RSS shrinks and its TLB is flushed via the ``pt_sharers``
registry).  The in-place edit is the cheap side of the unshare-or-edit
decision; each shared table touched is counted in
``shared_table_unmaps`` and charged to the cost model so benchmarks see
the price.

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
    BIT_PRESENT,
    PFN_MASK,
    PFN_SHIFT,
    make_swap_entry,
)

_INELIGIBLE = np.uint16(PG_FILE | PG_COMPOUND_HEAD | PG_COMPOUND_TAIL)
_ANON = np.uint16(PG_ANON)
_MATCH = PFN_MASK | BIT_PRESENT
_SHIFT = int(PFN_SHIFT)
_PRESENT = int(BIT_PRESENT)


def _maps(entries, pfn):
    """Mask of the present entries in ``entries`` that map ``pfn``."""
    return (entries & _MATCH) == np.uint64((pfn << _SHIFT) | _PRESENT)


class AnonRmap:
    """Per-frame ``mapcount``, first-mapped ``index`` and ``scattered``."""

    def __init__(self, kernel, n_frames):
        self.kernel = kernel
        self.mapcount = np.zeros(n_frames, dtype=np.int32)
        self.index = np.zeros(n_frames, dtype=np.int16)
        self.scattered = np.zeros(n_frames, dtype=bool)
        #: tables_for calls, and those that had to scan every column.
        self.lookups = 0
        self.scattered_lookups = 0
        # The live leaf tables' pfns and store rows, in creation order,
        # rebuilt when ``kernel.leaf_generation`` moves.
        self._generation = -1
        self._leaf_pfns = self._leaf_rows = None

    # ---- hot path ----------------------------------------------------------

    def add(self, pfns, positions, duplicates):
        """Count one mapping per pfn at ``positions``; return the pfns that
        were unmapped before, in first-occurrence order.

        ``positions`` None marks copies of live mappings at the entries
        they already occupy (fork, table COW; Linux's ``page_dup_rmap``):
        every frame is mapped already and keeps its index and flag, so
        only the count moves.
        """
        count = self.mapcount
        if positions is None:
            if duplicates:
                np.add.at(count, pfns, 1)
            else:
                count[pfns] += 1
            return pfns[:0]
        if duplicates:
            before = count[pfns]
            np.add.at(count, pfns, 1)
            _, first = np.unique(pfns, return_index=True)
            first.sort()
            first = first[before[first] == 0]
        else:
            after = count[pfns] + 1
            count[pfns] = after
            first = np.flatnonzero(after == 1)
            if len(first) == len(pfns):  # fresh frames: nothing to compare
                self.index[pfns] = positions
                return pfns
        fresh = pfns[first]
        self.index[fresh] = positions[first]
        moved = self.index[pfns] != positions
        if moved.any():
            self.scattered[pfns[moved]] = True
        return fresh

    def remove(self, pfns, duplicates):
        """Drop one mapping per pfn; return the pfns left unmapped."""
        count = self.mapcount
        if duplicates:
            np.add.at(count, pfns, -1)
            after = count[pfns]
        else:
            after = count[pfns] - 1
            count[pfns] = after
        last = after <= 0
        if not last.any():
            return pfns[:0]
        if (after < 0).any():
            raise KernelBug(
                f"rmap underflow on pfns {pfns[after < 0][:8].tolist()}")
        gone = pfns[last]
        if duplicates:
            gone = np.unique(gone)
        self.scattered[gone] = False
        return gone

    def add_one(self, pfn, position):
        """One more mapping at ``position``; True on the 0 -> mapped edge."""
        count = int(self.mapcount[pfn])
        self.mapcount[pfn] = count + 1
        if count == 0:
            self.index[pfn] = position
            return True
        if self.index[pfn] != position:
            self.scattered[pfn] = True
        return False

    def remove_one(self, pfn, n=1):
        """Drop ``n`` mappings; True on the mapped -> 0 edge."""
        count = int(self.mapcount[pfn]) - n
        if count < 0:
            raise KernelBug(f"rmap underflow: pfn {pfn}")
        self.mapcount[pfn] = count
        if count:
            return False
        self.scattered[pfn] = False
        return True

    def move(self, pfn, position):
        """One mapping moved to entry ``position`` of another table."""
        if self.mapcount[pfn] == 1:
            self.index[pfn] = position
            self.scattered[pfn] = False
        elif self.index[pfn] != position:
            self.scattered[pfn] = True

    # ---- cold path ---------------------------------------------------------

    def tables_for(self, pfn, count=True):
        """Leaf-table pfns mapping ``pfn``, in table creation order.

        Reads column ``index[pfn]`` of every live leaf table (every column
        when the frame is scattered).  A counted lookup of a scattered
        frame whose mappings all sit in one column re-packs the frame to
        that column.  ``count=False`` (the auditor's cross-check) mutates
        nothing: neither the counters nor the frame's packing.
        """
        if count:
            self.lookups += 1
        if self.mapcount[pfn] == 0:
            return []
        kernel = self.kernel
        if self._generation != kernel.leaf_generation:
            leaves = kernel.pt_sharers
            tables = kernel._tables
            self._leaf_pfns = np.fromiter(leaves, dtype=np.int64,
                                          count=len(leaves))
            self._leaf_rows = np.fromiter(
                (tables[leaf].row for leaf in leaves), dtype=np.int64,
                count=len(leaves))
            self._generation = kernel.leaf_generation
        store = kernel.entry_store
        if self.scattered[pfn]:
            matches = _maps(store.gather(self._leaf_rows), pfn)
            hit = matches.any(axis=1)
            if count:
                self.scattered_lookups += 1
                columns = np.flatnonzero(matches.any(axis=0))
                if len(columns) == 1:
                    # Every mapping left sits in one column again (the
                    # mremapped sharer went): re-pack, so later lookups
                    # read that column alone.
                    self.index[pfn] = columns[0]
                    self.scattered[pfn] = False
        else:
            hit = _maps(store.column(self._leaf_rows, int(self.index[pfn])),
                        pfn)
        found = self._leaf_pfns[hit].tolist()
        if not found:
            raise KernelBug(f"rmap: mapped frame {pfn} is in no live table")
        return found

    def ptes(self, pfn):
        """``(leaf table, selector)`` for each table :meth:`tables_for`
        finds: ``entries[selector]`` are the table's PTEs mapping ``pfn``
        (the frame's one-entry column, or a match mask when scattered)."""
        resolve = self.kernel.resolve_table
        tables = [resolve(leaf) for leaf in self.tables_for(pfn)]
        if self.scattered[pfn]:
            return [(table, _maps(table.entries, pfn)) for table in tables]
        i = int(self.index[pfn])
        column = slice(i, i + 1)
        return [(table, column) for table in tables]


def _eligible_mask(pages, pfns):
    return (pages.flags[pfns] & (_ANON | _INELIGIBLE)) == _ANON


def _eligible(kernel, pfn):
    flags = int(kernel.pages.flags[pfn])
    return bool(flags & PG_ANON) and not flags & _INELIGIBLE


def rmap_add(kernel, pfn, position):
    """One new mapping of ``pfn`` at entry ``position`` (fault-time hook)."""
    rmap = kernel.rmap
    if rmap is None or not _eligible(kernel, pfn):
        return
    if rmap.add_one(pfn, position):
        kernel.reclaim.lru_add(pfn)


def rmap_remove(kernel, pfn, n=1):
    """``n`` mappings of ``pfn`` gone (COW replacement, unmap)."""
    rmap = kernel.rmap
    if rmap is None or not _eligible(kernel, pfn):
        return
    if rmap.remove_one(pfn, n):
        kernel.reclaim.lru_remove(pfn)


def rmap_add_bulk(kernel, pfns, positions, duplicates=False):
    """Record one mapping per eligible pfn, at the matching entry index of
    ``positions`` (faults, THP split, snapshot restore), or, with
    ``positions`` None, as a copy at the entry each frame already
    occupies (fork, table COW).  ``duplicates`` must be True when a pfn
    may appear twice (:func:`~repro.mem.page.has_duplicates`)."""
    rmap = kernel.rmap
    if rmap is None or len(pfns) == 0:
        return
    if len(pfns) == 1 and positions is not None:
        # A one-page fault: the scalar path is cheaper.
        rmap_add(kernel, int(pfns[0]), int(positions[0]))
        return
    pfns = np.asarray(pfns, dtype=np.int64)
    mask = _eligible_mask(kernel.pages, pfns)
    if not mask.all():
        pfns = pfns[mask]
        if positions is not None:
            positions = np.asarray(positions)[mask]
    fresh = rmap.add(pfns, positions, duplicates)
    if len(fresh):
        lru_add = kernel.reclaim.lru_add
        for pfn in fresh.tolist():
            lru_add(pfn)


def rmap_remove_bulk(kernel, pfns, duplicates=False):
    """Drop one mapping per eligible pfn (zap, teardown, COW, collapse)."""
    rmap = kernel.rmap
    if rmap is None or len(pfns) == 0:
        return
    if len(pfns) == 1:  # a one-page fault: the scalar path is cheaper
        rmap_remove(kernel, int(pfns[0]))
        return
    pfns = np.asarray(pfns, dtype=np.int64)
    mask = _eligible_mask(kernel.pages, pfns)
    if not mask.all():
        pfns = pfns[mask]
    gone = rmap.remove(pfns, duplicates)
    if len(gone):
        lru_remove = kernel.reclaim.lru_remove
        for pfn in gone.tolist():
            lru_remove(pfn)


def rmap_move(kernel, pfn, position):
    """One mapping of ``pfn`` moved to entry ``position`` (mremap)."""
    rmap = kernel.rmap
    if rmap is not None and _eligible(kernel, pfn):
        rmap.move(pfn, position)


@charge_deferred("the LRU aging loops charge charge_lru_scan per probe")
def test_and_clear_referenced(kernel, pfn):
    """Aging probe: was any PTE mapping ``pfn`` accessed since last clear?

    Clears the accessed bits it finds (in place, even in shared tables —
    an attribute edit is invisible to the sharers' semantics, so no
    unshare decision applies here).
    """
    referenced = False
    for leaf, ptes in kernel.rmap.ptes(pfn):
        entries = leaf.entries
        if (entries[ptes] & BIT_ACCESSED).any():
            referenced = True
            entries[ptes] &= ~BIT_ACCESSED
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
    total = 0
    for leaf, ptes in rmap.ptes(pfn):
        leaf_pfn = leaf.pfn
        kernel.san_access("pt", leaf_pfn)
        entries = leaf.entries
        n = len(entries[ptes])
        entries[ptes] = entry_value
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
        total += n
    if total != rmap.mapcount[pfn]:
        raise KernelBug(f"rmap: pfn {pfn} has mapcount "
                        f"{int(rmap.mapcount[pfn])}, {total} PTEs found")
    rmap_remove(kernel, pfn, total)
    kernel.cost.charge_rmap_unmap(total)
    remaining = kernel.pages.get_ref(pfn)
    for _ in range(total):
        remaining = kernel.pages.ref_dec(pfn)
    if remaining == 0:
        free_one_anon_frame(kernel, pfn)
    return remaining
