"""Classic fork's address-space duplication (``copy_page_range``).

This is the baseline the paper measures against: at fork time the parent's
entire paging tree is replicated.  Upper levels are cheap (few nodes, §2.2);
the cost is the leaf loop — for every present PTE the kernel resolves the
``struct page`` (``vm_normal_page`` + ``compound_head``), bumps the page
refcount atomically, and write-protects private-COW entries in both parent
and child.  The loop here is vectorised, but charges exactly that
per-entry machinery to the clock, split across the Figure 3 hot spots, with
the struct-page portion scaled by the contention model when several forks
run at once.

One function does the copy: :func:`copy_pmd_range` copies any run of
slots inside one parent PMD table.  Only the range size varies, and it
is picked by whoever is watching.  :func:`copy_mm_classic` and the SMP
fork flow pass one 2 MiB slot per call — the granularity fail-points,
tracepoints, sanitizers, NUMA hooks and the scheduler observe — while
:func:`~repro.kernel.fastpath.fast_copy_mm_classic` passes whole tables
when nothing observes.  Both sizes reach the same state and the same
virtual clock.
"""

from __future__ import annotations

import numpy as np

from ..mem.page import HUGE_PAGE_ORDER, PAGE_SIZE, PTRS_PER_TABLE, has_duplicates
from ..paging.entries import (
    BIT_PRESENT,
    BIT_PS,
    BIT_RW,
    BIT_USER,
    ENTRY_NONE,
    PFN_MASK,
    PFN_SHIFT,
    entry_pfn,
    make_entry,
    present_mask,
    present_pfns,
)
from ..paging.table import (
    LEVEL_PGD,
    LEVEL_PMD,
    LEVEL_PTE,
    LEVEL_PUD,
    LEVEL_SPAN,
    PMD_REGION_SIZE,
    TABLE_SPAN,
)
from ..timing.costs import (
    FN_COMPOUND_HEAD,
    FN_COPY_ONE_PTE,
    FN_HUGE_COPY,
    FN_PAGE_REF_INC,
    FN_PTE_ALLOC,
    FN_READ_ONCE,
    FN_VM_NORMAL_PAGE,
)
from .rmap import rmap_add_bulk
from .tableops import count_file_pages
from ..sancheck.annotations import (
    acquires,
    charge_deferred,
    must_hold,
    tlb_deferred,
)
from ..trace import points

_DROP_RW = np.uint64(~BIT_RW)
_RW = np.uint64(BIT_RW)

# charge_many id table for a copied range: the six charges of a leaf slot
# (pte_alloc_one, then the five copy_one_pte split costs), plus the
# huge-entry copy.
_FORK_FNS = [FN_PTE_ALLOC, FN_COMPOUND_HEAD, FN_PAGE_REF_INC, FN_READ_ONCE,
             FN_VM_NORMAL_PAGE, FN_COPY_ONE_PTE, FN_HUGE_COPY]
_ID_HUGE = 6


def iter_parent_pmd_tables(mm, start=0, end=TABLE_SPAN[LEVEL_PGD]):
    """Yield ``(pmd_table, table_base_vaddr)`` for every PMD table in ``mm``
    that overlaps ``[start, end)``, in address order.

    Each PMD table covers 1 GiB of address space: the largest range the
    fork and zap walks process with one set of vectorised operations.
    """
    pgd = mm.pgd
    for pgd_index in pgd.present_indices().tolist():
        pud_base = pgd_index * LEVEL_SPAN[LEVEL_PGD]
        if pud_base >= end or pud_base + LEVEL_SPAN[LEVEL_PGD] <= start:
            continue
        pud = mm.resolve(pgd.child_pfn(pgd_index))
        for pud_index in pud.present_indices().tolist():
            base = pud_base + pud_index * LEVEL_SPAN[LEVEL_PUD]
            if base >= end or base + LEVEL_SPAN[LEVEL_PUD] <= start:
                continue
            yield mm.resolve(pud.child_pfn(pud_index)), base


def iter_parent_pmds(mm):
    """Yield ``(pmd_table, pmd_index, slot_start)`` for every present PMD
    entry in ``mm``, in address order."""
    for pmd, base in iter_parent_pmd_tables(mm):
        for pmd_index in pmd.present_indices().tolist():
            yield pmd, pmd_index, base + pmd_index * LEVEL_SPAN[LEVEL_PMD]


class ChildTreeBuilder:
    """Creates the child's upper paging levels lazily during a fork walk."""

    def __init__(self, child_mm):
        self.child_mm = child_mm
        self._pud_cache = {}
        self._pmd_cache = {}
        self.upper_tables_created = 0

    @must_hold("mmap_lock")
    @charge_deferred("the fork copy loops charge per-table costs; "
                     "upper-table construction is in the fork fixed cost")
    def pmd_for(self, slot_start):
        """The child PMD table and index covering ``slot_start``."""
        pmd_key = slot_start // LEVEL_SPAN[LEVEL_PUD]
        pmd = self._pmd_cache.get(pmd_key)
        if pmd is None:
            pud_key = slot_start // LEVEL_SPAN[LEVEL_PGD]
            pud = self._pud_cache.get(pud_key)
            child = self.child_mm
            # Covers both table allocations below; an OOM at either point
            # unwinds through _abort_fork, which tears the partial child
            # tree down like an exiting task's.
            child.kernel.failpoints.hit("fork.upper_table")
            if pud is None:
                pud = child.alloc_table(LEVEL_PUD)
                self.upper_tables_created += 1
                pgd_index = pud_key % PTRS_PER_TABLE
                child.pgd.set(pgd_index, make_entry(pud.pfn, writable=True, user=True))
                self._pud_cache[pud_key] = pud
            pmd = child.alloc_table(LEVEL_PMD)
            self.upper_tables_created += 1
            pud_index = pmd_key % PTRS_PER_TABLE
            pud.set(pud_index, make_entry(pmd.pfn, writable=True, user=True))
            self._pmd_cache[pmd_key] = pmd
        pmd_index = (slot_start // LEVEL_SPAN[LEVEL_PMD]) % PTRS_PER_TABLE
        return pmd, pmd_index


def clone_vmas(parent_mm, child_mm):
    """Copy the parent's VMA list into the child."""
    for vma in parent_mm.vmas:
        child_mm.add_vma(vma.clone())


@must_hold("mmap_lock")
def begin_classic_copy(kernel, parent_mm, child_mm):
    """Fixed-cost prologue: task/VMA duplication and the child tree root."""
    kernel.cost.charge_fork_fixed(len(parent_mm.vmas))
    clone_vmas(parent_mm, child_mm)
    return ChildTreeBuilder(child_mm)


def _cow_rows(mm, table_base, positions):
    """Boolean ``(len(positions), 512)``: the private-COW mask of each slot.

    Row ``i`` equals ``private_cow_mask(mm, slot_start)`` for the slot at
    PMD index ``positions[i]`` of the table at ``table_base``; only the
    slots between the first and last position are painted.
    """
    first = int(positions[0])
    last = int(positions[-1]) + 1
    lo = table_base + first * PMD_REGION_SIZE
    hi = table_base + last * PMD_REGION_SIZE
    mask = np.zeros((last - first) * PTRS_PER_TABLE, dtype=bool)
    for vma in mm.vmas.overlapping(lo, hi):
        if vma.needs_cow:
            mask[(max(vma.start, lo) - lo) // PAGE_SIZE:
                 (min(vma.end, hi) - lo) // PAGE_SIZE] = True
    return mask.reshape(-1, PTRS_PER_TABLE)[positions - first]


@must_hold("mmap_lock", "ptl")
@tlb_deferred("write-protects parent COW entries; finish_classic_copy shoots the parent down once for the whole copy")
def copy_pmd_range(kernel, parent_mm, child_mm, builder, pmd, start, end):
    """Copy the present slots of parent PMD table ``pmd`` in ``[start, end)``.

    The range lies inside the 1 GiB the table covers.  Returns
    ``(leaf_tables, huge_entries)`` copied.  For a one-slot range the
    steps run in the order every observer relies on: the
    ``fork.copy_slot`` fail-point before any mutation, the child's upper
    tables, the child leaf allocation before the parent row is read (so
    a reclaim it triggers is seen), the sanitizer/Mitosis/NUMA hooks,
    the charges, then the ``fork.copy_slot`` tracepoint.  An OOM
    therefore leaves the child with complete slots plus possibly empty
    tables, which ``Kernel._abort_fork`` tears down like an exit.
    """
    table_base = start - start % TABLE_SPAN[LEVEL_PMD]
    lo = (start - table_base) // PMD_REGION_SIZE
    hi = (end - table_base) // PMD_REGION_SIZE
    present = present_mask(pmd.entries[lo:hi])
    positions = np.nonzero(present)[0] + lo
    if not len(positions):
        return 0, 0
    kernel.failpoints.hit("fork.copy_slot")
    child_pmd, _ = builder.pmd_for(start)
    huge = (pmd.entries[positions] & BIT_PS) != ENTRY_NONE
    leaf_pos = positions[~huge]
    huge_pos = positions[huge]
    pages = kernel.pages
    store = kernel.entry_store

    parent_pfns = entry_pfn(pmd.entries[leaf_pos]).astype(np.int64)
    n_leaf = len(leaf_pos)
    counts = np.zeros(0, dtype=np.int64)
    if n_leaf:
        parent_tables = []
        for ppfn in parent_pfns.tolist():
            parent_tables.append(kernel.resolve_table(ppfn))
            kernel.san_access("pt", ppfn)
        # One batch for every leaf table of the range: the frames
        # n_leaf single allocations would get, in address order.
        child_tables = child_mm.alloc_tables(LEVEL_PTE, n_leaf)
        child_pfns = np.fromiter((t.pfn for t in child_tables),
                                 dtype=np.uint64, count=n_leaf)
        child_pmd.entries[leaf_pos] = (
            ((child_pfns << np.uint64(PFN_SHIFT)) & np.uint64(PFN_MASK))
            | np.uint64(BIT_PRESENT | BIT_RW | BIT_USER))
        parent_rows = np.fromiter((t.row for t in parent_tables),
                                  dtype=np.int64, count=n_leaf)
        matrix = store.gather(parent_rows)
        cow = _cow_rows(parent_mm, table_base, leaf_pos)
        # Only COW entries still carrying RW change; after the first
        # fork a dedicated parent's are all write-protected already.
        writable = cow & ((matrix & _RW) != ENTRY_NONE)
        matrix[writable] &= _DROP_RW
        n_cow = cow.sum(axis=1)
        # Dedicated parent tables get the same write-protect; shared ones
        # are left alone — their PMD entry already carries RW=0, which
        # protects every sharer, and the table-COW protocol owns their
        # entry bits.  Rows the write-protect leaves unchanged are not
        # written back.
        protect = (pages.pt_refcount[parent_pfns] == 1) & (n_cow > 0)
        rewrite = protect & writable.any(axis=1)
        if rewrite.any():
            store.scatter(parent_rows[rewrite], matrix[rewrite])
        store.scatter(np.fromiter((t.row for t in child_tables),
                                  dtype=np.int64, count=n_leaf),
                      matrix)
        if kernel.numa is not None:
            # Mitosis coherence events (the parent's write-protect, the
            # fresh auto-replicated child table) and the distance cost of
            # reading the parent's frame; NUMA-only, so one slot per range.
            for i, parent_leaf in enumerate(parent_tables):
                if protect[i]:
                    kernel.note_table_write(parent_leaf, int(n_cow[i]))
                kernel.note_table_write(child_tables[i], PTRS_PER_TABLE)
                kernel.charge_numa_copy(parent_leaf.pfn)

        pres = present_mask(matrix)
        counts = pres.sum(axis=1).astype(np.int64)
        pfns = present_pfns(matrix, pres)
        duplicates = has_duplicates(pfns)
        if len(pfns):
            pages.ref_inc_bulk(pfns, duplicates)
            # RSS is accounted per range, not snapshot-copied at the end:
            # under SMP a concurrent reclaim may unmap pages from
            # already-copied child tables before the walk finishes.
            n_file = count_file_pages(kernel, pfns)
            child_mm.add_rss(n_file, file_backed=True)
            child_mm.add_rss(len(pfns) - n_file, file_backed=False)
        if kernel.swap is not None:
            # Copied swap entries reference their slots too, and the
            # copy's present anon pages gain a reverse mapping at the
            # parent's entry index.
            kernel.swap_dup_entries(matrix)
            rmap_add_bulk(kernel, pfns, None, duplicates)

    if len(huge_pos):
        ents = pmd.entries[huge_pos].copy()
        pages.ref_inc_bulk(entry_pfn(ents).astype(np.int64))
        needs = np.fromiter(
            (_slot_needs_cow(parent_mm, table_base + pos * PMD_REGION_SIZE)
             for pos in huge_pos.tolist()),
            dtype=bool, count=len(huge_pos))
        ents[needs] &= _DROP_RW
        pmd.entries[huge_pos[needs]] = ents[needs]
        child_pmd.entries[huge_pos] = ents
        child_mm.add_rss((1 << HUGE_PAGE_ORDER) * len(huge_pos),
                         file_backed=False)

    _charge_copied_slots(kernel.cost, huge, counts)
    if points.enabled:
        present_counts = iter(counts.tolist())
        for pos, is_huge_slot in zip(positions.tolist(), huge.tolist()):
            points.tracepoint(
                "fork.copy_slot",
                slot_start=table_base + pos * PMD_REGION_SIZE,
                huge=is_huge_slot,
                n_present=1 if is_huge_slot else next(present_counts))
    return n_leaf, len(huge_pos)


def _charge_copied_slots(cost, huge, counts):
    """Charge copied slots in address order, as one ``charge_many``.

    A huge slot is one HUGE_COPY event; a leaf slot is ``pte_alloc_one``
    plus the five ``copy_one_pte`` split charges over its ``counts``
    present entries.  Zero-valued events are skipped by ``charge_many``
    exactly as ``charge`` skips them: no clock advance, no noise draw.
    """
    p = cost.params
    ids = np.tile(np.arange(6, dtype=np.int64), (len(huge), 1))
    ns = np.zeros((len(huge), 6), dtype=np.float64)
    ids[huge, 0] = _ID_HUGE
    ns[huge, 0] = p.huge_entry_copy
    if len(counts):
        factor = cost.contention_factor()
        leaf = ~huge
        nvec = counts.astype(np.float64)
        ns[leaf, 0] = p.pte_table_alloc
        ns[leaf, 1] = (p.pte_copy_compound_head * nvec) * factor
        ns[leaf, 2] = (p.pte_copy_page_ref_inc * nvec) * factor
        ns[leaf, 3] = p.pte_copy_read_once * nvec
        ns[leaf, 4] = p.pte_copy_vm_normal_page * nvec
        ns[leaf, 5] = p.pte_copy_other * nvec
    cost.charge_many(ids, ns, _FORK_FNS)


@must_hold("mmap_lock")
def finish_classic_copy(kernel, parent_mm, child_mm, builder, n_leaf_tables,
                        n_huge_entries):
    """Epilogue: warm-up/fixed charges, lineage, and the parent shootdown."""
    cost = kernel.cost
    if n_leaf_tables:
        # First-touch misses on struct page and allocator state; huge-only
        # address spaces skip this, which is most of Figure 4's advantage.
        cost.charge_fork_warmup()
    elif n_huge_entries:
        cost.charge_huge_fork_fixed()
    cost.charge_upper_copy(builder.upper_tables_created)
    child_mm.odf_lineage = parent_mm.odf_lineage
    # Write-protecting private-COW entries invalidates writable
    # translations on every CPU running the parent's address space.
    kernel.tlbs.shootdown_mm(parent_mm)
    kernel.stats.forks += 1
    if points.enabled:
        points.tracepoint("fork.copy_done",
                          leaf_tables=n_leaf_tables,
                          huge_entries=n_huge_entries,
                          upper_tables=builder.upper_tables_created)


@must_hold("mmap_lock")
@acquires("ptl")
def copy_mm_classic(kernel, parent_mm, child_mm):
    """Duplicate ``parent_mm`` into ``child_mm`` one 2 MiB slot at a time."""
    builder = begin_classic_copy(kernel, parent_mm, child_mm)
    n_leaf = n_huge = 0
    for pmd, _, slot_start in iter_parent_pmds(parent_mm):
        leaf, huge = copy_pmd_range(kernel, parent_mm, child_mm, builder, pmd,
                                    slot_start, slot_start + PMD_REGION_SIZE)
        n_leaf += leaf
        n_huge += huge
    finish_classic_copy(kernel, parent_mm, child_mm, builder, n_leaf, n_huge)


def _slot_needs_cow(mm, slot_start):
    """Whether the (single) hugetlb VMA over this slot is private-COW."""
    vma = mm.vmas.find(slot_start)
    return vma is not None and vma.needs_cow
