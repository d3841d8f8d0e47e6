"""The page-fault implementation, at every batch size.

One code path resolves every fault.  :func:`fault_piece` takes one VMA's
pages inside one PMD slot and fixes them up whole-table-at-a-time with
numpy: the §3.4 decision tree (copy a shared PTE table before modifying
it, flip the PMD write bit back for a sole owner), then swap-ins,
demand-zero and page-cache fills, data-page COW with the refcount-1
reuse path, shared-mapping write-notify, and huge-slot fills and COW.
The byte path's :meth:`FaultHandler.handle` runs it over the one
faulting page; :func:`access_range` (sweeps, ``MAP_POPULATE``) runs it
over whole ranges.  Python cannot take thirteen million individual page
faults, so workloads that sweep gigabytes use the latter.

The cost rule is the byte path's per-page nominal amount, whatever the
batch: every page fault charges ``fault_base`` once, plus

* demand-zero: ``page_alloc`` + ``page_zero_4k``;
* data COW: ``page_alloc`` + ``page_copy_4k`` (odfork-lineage warmth
  discount) + the NUMA distance of the source;
* COW reuse and write-notify: ``fault_spurious``;
* page-cache fill: ``page_cache_lookup``; a private file write adds
  ``page_alloc`` + ``page_copy_4k`` + NUMA in the same fault;
* swap-in: whatever :func:`swap_in_entry` charges;
* huge fill: ``page_alloc`` + a 2 MiB streaming write; huge COW adds the
  NUMA distance of the source;

each issued as one charge per kind per leaf piece (file pages, which
the page cache hands out one index at a time, charge per page).  With
noise off, a sweep therefore charges exactly what faulting its pages one
at a time does.  A write to a swapped page the swap cache still shares
is two page faults at either batch size: the swap-in, then the COW.
"""

from __future__ import annotations

import numpy as np

from ..errors import BusError, OutOfMemoryError, SegmentationFault
from ..mem.page import (
    HUGE_PAGE_ORDER,
    HUGE_PAGE_SIZE,
    PAGE_SIZE,
    PG_ANON,
    PG_DIRTY,
    PG_FILE,
    has_duplicates,
)
from ..paging.entries import (
    BIT_ACCESSED,
    BIT_DIRTY,
    BIT_PRESENT,
    BIT_PS,
    BIT_RW,
    BIT_USER,
    PFN_SHIFT,
    entry_pfn,
    is_huge,
    is_present,
    is_writable,
    make_entry,
    present_mask,
    swap_entry_slot,
    swap_mask,
)
from ..paging.table import LEVEL_PTE, page_align_down, page_align_up
from ..timing.costs import FN_FAULT_BASE
from ..trace import points
from .rmap import rmap_add, rmap_add_bulk, rmap_remove_bulk
from ..sancheck.annotations import acquires, must_hold
from .tableops import copy_shared_pte_table, free_anon_frames, unshare_sole_owner

_BASE_BITS = BIT_PRESENT | BIT_USER | BIT_ACCESSED
_PRESENT_RW = BIT_PRESENT | BIT_RW

#: The per-page fault kinds: each resolved page is one page fault.
FAULT_KINDS = ("demand_zero", "file_fills", "cow_pages", "cow_reuse",
               "write_notify", "swap_ins", "huge_faults", "huge_cow")
#: Event counts a fault reports: the kinds plus the shared-table copies
#: that ride on them.
EVENTS = FAULT_KINDS + ("table_copies",)


#: Entry bits by ``(writable, dirty)``.
_BITS = {(w, d): _BASE_BITS | (BIT_RW if w else np.uint64(0))
         | (BIT_DIRTY if d else np.uint64(0))
         for w in (False, True) for d in (False, True)}


def _entries_for(pfns, writable, dirty):
    return (pfns.astype(np.uint64) << PFN_SHIFT) | _BITS[bool(writable), bool(dirty)]


def check_access(mm, start, end, is_write):
    """Validate ``[start, end)`` against the VMAs, before anything maps.

    Raises ``SegmentationFault`` for a hole, a write to a read-only VMA or
    a read of an unreadable one, and ``BusError`` for file pages past the
    end of the file.  Returns the last VMA checked (the only one for a
    single-page range).
    """
    cursor = start
    for vma in mm.vmas.overlapping(start, end):
        if vma.start > cursor:
            raise SegmentationFault(cursor, is_write, "no VMA")
        at = max(vma.start, start)
        if is_write and not vma.writable:
            raise SegmentationFault(at, is_write, "write to read-only VMA")
        if not is_write and not vma.readable:
            raise SegmentationFault(at, is_write, "VMA not readable")
        if vma.file is not None:
            eof = (vma.start - vma.file_offset
                   + page_align_up(vma.file.size))
            if min(end, vma.end) > eof:
                raise BusError(max(eof, at), "access beyond end of file")
        cursor = vma.end
        if cursor >= end:
            return vma
    raise SegmentationFault(cursor, is_write, "no VMA")


@acquires("mmap_lock", "ptl")
def access_range(kernel, task, start, length, is_write, charge_memcpy=True):
    """Touch ``[start, start+length)`` for read or write, in bulk.

    Faults every page exactly as a sequential sweep of byte accesses
    would: every page becomes present, writes trigger (and charge) COW
    and shared-table copies, permissions are enforced up front.  Returns
    a dict of event counts so benchmarks can report what the sweep did.
    """
    if length <= 0:
        return {}
    task.require_alive()
    mm = task.mm
    first = page_align_down(start)
    last = page_align_up(start + length)
    check_access(mm, first, last, is_write)
    if charge_memcpy:
        kernel.cost.charge_memcpy(length, is_write)

    events = dict.fromkeys(EVENTS, 0)
    for pmd_table, pmd_index, slot_start, lo, hi in mm.pmd_slots(first, last, alloc=True):
        for plo, phi, vma in mm.vma_ranges_in_slot(lo, hi):
            fault_piece(kernel, mm, vma, pmd_table, pmd_index, slot_start,
                        plo, phi, is_write, events)
    # Bulk COW may have switched backing frames across the whole range;
    # purge it from every CPU caching this mm (no extra charge: matches
    # the per-fault flushes this batch replaces).
    kernel.tlbs.shootdown_mm(mm, first, last, charge=False)
    kernel.stats.page_faults += sum(events[kind] for kind in FAULT_KINDS)
    return events


def populate_range(kernel, task, start, length):
    """MAP_POPULATE-style pre-fault of a fresh mapping (no memcpy charge)."""
    return access_range(kernel, task, start, length, is_write=False,
                        charge_memcpy=False)


# --------------------------------------------------------------------- #

@must_hold("mmap_lock", "ptl")
def fault_piece(kernel, mm, vma, pmd_table, pmd_index, slot_start, lo, hi,
                is_write, events):
    """Fault in ``[lo, hi)``: one VMA's pages inside one PMD slot.

    Adds the resolved page faults to ``events``.  A write to a swapped
    page counts two: the swap-in maps it read-only while the swap cache
    still holds it, and the COW follows.
    """
    cost = kernel.cost
    entry = pmd_table.entries[pmd_index]
    if vma.is_hugetlb or (is_present(entry) and is_huge(entry)):
        # hugetlb, or a THP-promoted slot: PMD-granular access.
        _fault_huge_slot(kernel, mm, vma, pmd_table, pmd_index, slot_start,
                         lo, is_write, events)
        return
    if not is_present(entry):
        kernel.failpoints.hit("fault.pte_table_alloc")
        leaf = mm.alloc_table(LEVEL_PTE)
        cost.charge_pte_table_alloc()
        pmd_table.entries[pmd_index] = _entries_for(
            np.uint64(leaf.pfn), writable=True, dirty=False)
        kernel.note_table_write(pmd_table)
    else:
        leaf = mm.resolve(int(entry_pfn(entry)))
        # KCSAN watchpoint on the leaf table, keyed by the pfn the
        # split-PTL protocol locks on for this address.
        kernel.san_access("pt", leaf.pfn)

    lo_index = (lo - slot_start) // PAGE_SIZE
    hi_index = (hi - slot_start) // PAGE_SIZE
    sub = leaf.entries[lo_index:hi_index]
    n_present = np.count_nonzero(sub & BIT_PRESENT)
    n_swapped = 0
    if kernel.swap is not None:
        swapped = swap_mask(sub)
        n_swapped = int(np.count_nonzero(swapped))
    need_fill = n_present + n_swapped < sub.size

    shared = kernel.pages.pt_ref(leaf.pfn) > 1
    if shared and (is_write or need_fill or n_swapped):
        # §3.4: the kernel must modify the table (install an entry or
        # start data COW), so it first takes a dedicated copy.
        leaf = copy_shared_pte_table(kernel, mm, pmd_table, pmd_index, slot_start)
        events["table_copies"] += 1
        sub = leaf.entries[lo_index:hi_index]
    elif is_write and not shared and not is_writable(pmd_table.entries[pmd_index]):
        # §3.4: refcount came back to one; both tables involved in the
        # last copy are now dedicated.
        unshare_sole_owner(kernel, mm, pmd_table, pmd_index)

    if n_swapped:
        # Swap entries fault back in one by one (each is a real swap-in
        # or a swap-cache hit); the table is dedicated by this point.
        for pos in swapped.nonzero()[0].tolist():
            swap_in_entry(kernel, mm, vma, leaf, lo_index + pos, is_write)
        cost.charge(FN_FAULT_BASE, n_swapped * cost.params.fault_base)
        events["swap_ins"] += n_swapped

    if need_fill:
        # Recompute absence: a reclaim pass triggered by the swap-ins'
        # allocations may have turned present entries into swap entries,
        # which must not be treated as demand-zero holes.
        absent = ~present_mask(sub)
        if kernel.swap is not None:
            absent &= ~swap_mask(sub)
        if vma.file is not None:
            _fill_from_cache(kernel, mm, vma, leaf, slot_start, lo_index,
                             sub, absent, is_write, events)
        elif absent.any():
            _demand_zero(kernel, mm, vma, leaf, lo_index, sub, absent,
                         is_write, events)

    if not is_write:
        np.bitwise_or(sub, BIT_ACCESSED, out=sub, where=present_mask(sub))
        return
    ro = (sub & _PRESENT_RW) == BIT_PRESENT
    if np.count_nonzero(ro):
        if vma.needs_cow:
            _cow(kernel, mm, vma, leaf, lo_index, sub, ro, events)
        else:
            _write_notify(kernel, leaf, sub, ro, events)
    np.bitwise_or(sub, BIT_DIRTY | BIT_ACCESSED, out=sub,
                  where=(sub & _PRESENT_RW) == _PRESENT_RW)


@must_hold("mmap_lock", "ptl")
def swap_in_entry(kernel, mm, vma, leaf, pte_index, is_write):
    """Fault-time swap-in of one swap-entry PTE (Linux's ``do_swap_page``).

    The leaf table is already dedicated to ``mm`` here: shared tables are
    copied before any entry is modified, swap references included, so
    installing the page cannot disturb the other sharers.

    A swap-cache hit maps the cached frame at no I/O cost.  A miss reads
    the slot into a fresh frame and inserts it into the cache, so sharers
    that fault later converge on the *same* frame — required for COW
    correctness when a fork-shared page was swapped out.  Cached frames
    stay read-only (the exclusivity check below), so cache content never
    diverges from slot content and writes COW away normally.
    """
    slot = int(swap_entry_slot(leaf.entries[pte_index]))
    kernel.cost.charge_swap_cache_lookup()
    pfn = kernel.swap_cache.pfn_of(slot)
    cache_hit = pfn is not None
    if pfn is None:
        kernel.failpoints.hit("fault.swap_in")
        pfn = kernel.alloc_data_frame(mm)
        kernel.pages.on_alloc(pfn, PG_ANON)  # this ref becomes the cache's
        data = kernel.swap.read(slot)
        if data is not None:
            kernel.phys.write(pfn, 0, data)
        kernel.swap_cache.add(slot, pfn)
        kernel.stats.pswpin += 1
        kernel.cost.charge_page_alloc()
        kernel.cost.charge_swap_in()
    else:
        kernel.stats.swap_cache_hits += 1
        kernel.cost.charge_fault_spurious()
    if points.enabled:
        points.tracepoint("fault.swap_in", slot=slot, pfn=pfn,
                          cache_hit=cache_hit)
    kernel.pages.ref_inc(pfn)  # the table's ownership reference
    rmap_add(kernel, pfn, pte_index)
    # The PTE's slot reference is consumed; when it was the last one the
    # slot is released and the cache entry (with its page ref) goes too.
    kernel.swap_put(slot)
    # Map writable only when exclusive: a frame still held by the swap
    # cache or a snapshot must COW on write like any shared page.
    writable = vma.writable and kernel.pages.get_ref(pfn) == 1
    leaf.set(pte_index, make_entry(
        pfn, writable=writable, user=True,
        dirty=is_write and writable, accessed=True,
    ))
    kernel.note_table_write(leaf)
    mm.add_rss(1, file_backed=False)
    return pfn


@must_hold("mmap_lock", "ptl")
def _demand_zero(kernel, mm, vma, leaf, lo_index, sub, absent, is_write,
                 events):
    """Anonymous first touch: hand out zeroed exclusive pages."""
    params = kernel.cost.params
    n = int(np.count_nonzero(absent))
    kernel.failpoints.hit("fault.demand_zero")
    if n == 1:
        # One page takes the single-frame path: the bulk allocator would
        # carve it from its largest free block, a different frame and node.
        pfns = np.array([kernel.alloc_data_frame(mm)], dtype=np.int64)
    else:
        pfns = kernel.alloc_data_frames_bulk(mm, n)
    kernel.pages.on_alloc_bulk(pfns, PG_ANON | (PG_DIRTY if is_write else 0))
    sub[absent] = _entries_for(pfns, vma.writable, dirty=is_write)
    kernel.note_table_write(leaf, n)
    if kernel.rmap is not None:
        rmap_add_bulk(kernel, pfns, np.flatnonzero(absent) + lo_index)
    mm.add_rss(n, file_backed=False)
    kernel.cost.charge(
        "bulk_demand_zero",
        n * (params.fault_base + params.page_alloc + params.page_zero_4k),
    )
    kernel.stats.demand_zero_faults += n
    events["demand_zero"] += n


@must_hold("mmap_lock", "ptl")
def _fill_from_cache(kernel, mm, vma, leaf, slot_start, lo_index, sub,
                     absent, is_write, events):
    """Fill from the page cache (§3.7: forwarded to the cache/fs).

    File pages come from the cache one index at a time; file-backed
    regions in the workloads are small (binaries, shmem segments).  RSS,
    stats and charges are booked per page: a cache fill can fail under
    OOM mid-loop, and the entries already installed must be accounted.
    A private file write copies straight into an anonymous page.
    """
    cost = kernel.cost
    private_cow = vma.is_private and is_write
    writable = vma.writable and vma.is_shared
    for pos in np.nonzero(absent)[0].tolist():
        vaddr = slot_start + (lo_index + pos) * PAGE_SIZE
        cache_pfn = kernel.page_cache.get_page(
            vma.file, vma.file_offset_of(vaddr) // PAGE_SIZE)
        cost.charge_fault_base()
        cost.charge_page_cache_lookup()
        kernel.stats.file_faults += 1
        if private_cow:
            # Pin the source: direct reclaim inside the allocation must
            # not drop the cache page we are about to copy from.
            kernel.pages.ref_inc(cache_pfn)
            try:
                kernel.failpoints.hit("fault.file_cow")
                pfn = kernel.alloc_data_frame(mm)
            finally:
                kernel.pages.ref_dec(cache_pfn)
            kernel.pages.on_alloc(pfn, PG_ANON)
            kernel.phys.copy_frame(cache_pfn, pfn)
            cost.charge_page_alloc()
            cost.charge_page_copy_4k()
            kernel.charge_numa_copy(cache_pfn)
            sub[pos] = _entries_for(np.uint64(pfn), True, dirty=True)
            rmap_add(kernel, pfn, lo_index + pos)
            mm.add_rss(1, file_backed=False)
        else:
            # Map the cache page itself; the table takes its ownership ref.
            kernel.pages.ref_inc(cache_pfn)
            sub[pos] = _entries_for(np.uint64(cache_pfn), writable,
                                    dirty=is_write and writable)
            if is_write and writable:
                kernel.page_cache.mark_dirty(cache_pfn)
            mm.add_rss(1, file_backed=True)
        kernel.note_table_write(leaf)
        events["file_fills"] += 1


@must_hold("mmap_lock", "ptl")
def _write_notify(kernel, leaf, sub, ro_mask, events):
    """A write hit read-only pages of a shared mapping: restore the
    permission in place and dirty the pages (and their cache pages)."""
    params = kernel.cost.params
    n = int(np.count_nonzero(ro_mask))
    sub[ro_mask] |= BIT_RW | BIT_DIRTY
    kernel.note_table_write(leaf, n)
    pfns = entry_pfn(sub[ro_mask]).astype(np.int64)
    file_pages = (kernel.pages.flags[pfns] & np.uint16(PG_FILE)) != 0
    for pfn in pfns[file_pages].tolist():
        kernel.page_cache.mark_dirty(pfn)
    kernel.cost.charge(FN_FAULT_BASE,
                       n * (params.fault_base + params.fault_spurious))
    events["write_notify"] += n


@must_hold("mmap_lock", "ptl")
def _cow(kernel, mm, vma, leaf, lo_index, sub, ro_mask, events):
    """COW every read-only private page in the mask (do_wp_page)."""
    cost = kernel.cost
    params = cost.params
    positions = ro_mask.nonzero()[0]
    old_pfns = entry_pfn(sub[positions]).astype(np.int64)

    # The refcount-1 reuse fast path, applied per page like do_wp_page;
    # a page-cache page (private file mappings only) is always copied.
    reusable = kernel.pages.refcount[old_pfns] == 1
    file_pages = None
    if vma.file is not None:
        file_pages = (kernel.pages.flags[old_pfns] & PG_FILE) != 0
        reusable &= ~file_pages
    n_reuse = int(np.count_nonzero(reusable))
    copy_positions, src = positions, old_pfns
    if n_reuse:
        sub[positions[reusable]] |= BIT_RW | BIT_DIRTY
        kernel.note_table_write(leaf, n_reuse)
        kernel.stats.cow_reuse += n_reuse
        cost.charge("bulk_cow_reuse",
                    n_reuse * (params.fault_base + params.fault_spurious))
        events["cow_reuse"] += n_reuse
        if n_reuse == positions.size:
            return
        copy_mask = ~reusable
        copy_positions, src = positions[copy_mask], old_pfns[copy_mask]
        if file_pages is not None:
            file_pages = file_pages[copy_mask]
    n = src.size
    duplicates = None
    if kernel.rmap is not None:
        # Pin the sources: the allocation below may run direct reclaim,
        # which must not pick the very pages we are about to copy from.
        duplicates = has_duplicates(src)
        kernel.pages.ref_inc_bulk(src, duplicates)
    try:
        kernel.failpoints.hit("fault.cow_copy")
        if n == 1:  # the single-frame path, as in _demand_zero
            dst = np.array([kernel.alloc_data_frame(mm)], dtype=np.int64)
        else:
            dst = kernel.alloc_data_frames_bulk(mm, n)
    except OutOfMemoryError:
        if kernel.rmap is not None:
            # The pins must not outlive the try.
            kernel.pages.ref_dec_bulk(src, duplicates)
        raise
    kernel.pages.on_alloc_bulk(dst, PG_ANON | PG_DIRTY)
    kernel.phys.copy_frames_bulk(src, dst)
    n_file = 0 if file_pages is None else int(np.count_nonzero(file_pages))
    if kernel.rmap is not None:
        kernel.pages.ref_dec_bulk(src, duplicates)  # the pins; refs stay >= 1
        rmap_remove_bulk(kernel, src, duplicates)
    zeroed = kernel.pages.ref_dec_bulk(src, duplicates)
    free_anon_frames(kernel, zeroed)
    sub[copy_positions] = _entries_for(dst, writable=True, dirty=True)
    kernel.note_table_write(leaf, n)
    if kernel.rmap is not None:
        rmap_add_bulk(kernel, dst, copy_positions + lo_index)
    if n_file:
        mm.sub_rss(n_file, file_backed=True)
        mm.add_rss(n_file, file_backed=False)
    warmth = params.odf_cow_warmth if mm.odf_lineage else 1.0
    cost.charge(
        "bulk_cow_copy",
        n * (params.fault_base + params.page_alloc + params.page_copy_4k * warmth),
    )
    kernel.charge_numa_copy(src)
    kernel.stats.cow_faults += n
    events["cow_pages"] += n


@must_hold("mmap_lock", "ptl")
def _fault_huge_slot(kernel, mm, vma, pmd_table, pmd_index, slot_start, lo,
                     is_write, events):
    """Fault at PMD granularity: demand allocation of a compound page and
    whole-page COW (what makes huge-page COW faults ~16x slower than
    On-demand-fork's worst case in Table 1).  An exclusive page is
    reused in place; a THP region only when its VMA is private-COW."""
    cost = kernel.cost
    params = cost.params
    entry = pmd_table.entries[pmd_index]
    if not is_present(entry):
        kernel.failpoints.hit("fault.huge_alloc")
        head = kernel.alloc_huge_frame(mm)
        kernel.pages.on_alloc_compound(head, HUGE_PAGE_ORDER, PG_ANON)
        pmd_table.entries[pmd_index] = _entries_for(
            np.uint64(head), vma.writable, dirty=is_write) | BIT_PS
        kernel.note_table_write(pmd_table)
        mm.add_rss(1 << HUGE_PAGE_ORDER, file_backed=False)
        cost.charge_fault_base()
        cost.charge_page_alloc()
        cost.charge_bulk_copy(HUGE_PAGE_SIZE)  # zeroing 2 MiB
        kernel.stats.huge_faults += 1
        events["huge_faults"] += 1
        return
    if not is_huge(entry):
        raise SegmentationFault(lo, is_write, "4k entry in hugetlb VMA")
    if is_write and not is_writable(entry):
        head = int(entry_pfn(entry))
        if (kernel.pages.get_ref(head) == 1
                and (vma.is_hugetlb or vma.needs_cow)):
            pmd_table.entries[pmd_index] = entry | BIT_RW | BIT_DIRTY
            kernel.note_table_write(pmd_table)
            kernel.stats.cow_reuse += 1
            cost.charge("bulk_cow_reuse",
                        params.fault_base + params.fault_spurious)
            events["cow_reuse"] += 1
            return
        kernel.failpoints.hit("fault.huge_cow")
        new_head = kernel.alloc_huge_frame(mm)
        kernel.pages.on_alloc_compound(new_head, HUGE_PAGE_ORDER, PG_ANON | PG_DIRTY)
        for sub_pfn in range(1 << HUGE_PAGE_ORDER):
            if kernel.phys.is_materialized(head + sub_pfn):
                kernel.phys.copy_frame(head + sub_pfn, new_head + sub_pfn)
        cost.charge_fault_base()
        cost.charge_page_alloc()
        cost.charge_bulk_copy(HUGE_PAGE_SIZE)
        kernel.charge_numa_copy(head, 1 << HUGE_PAGE_ORDER)
        if kernel.pages.ref_dec(head) == 0:
            kernel.free_huge_frame(head)
        pmd_table.entries[pmd_index] = _entries_for(
            np.uint64(new_head), writable=True, dirty=True) | BIT_PS
        kernel.note_table_write(pmd_table)
        # The whole 2 MiB region changed frames: every cached translation
        # under this PMD entry is stale, not just the faulting page.
        kernel.tlbs.shootdown_mm(mm, slot_start, slot_start + HUGE_PAGE_SIZE,
                                 charge=False)
        kernel.stats.huge_cow_faults += 1
        events["huge_cow"] += 1
        return
    if is_write:
        # sancheck: ignore[clock-charge] -- accessed/dirty bits on a huge-entry hit are hardware writes, free of kernel-clock cost
        pmd_table.entries[pmd_index] = entry | BIT_DIRTY | BIT_ACCESSED
    else:
        pmd_table.entries[pmd_index] = entry | BIT_ACCESSED
