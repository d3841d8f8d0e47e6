"""The page-fault handler.

Faults are where On-demand-fork earns its name: work classic fork does
eagerly is performed here, on demand, at 2 MiB granularity.  The
decision tree mirrors §3.4 of the paper:

1. Validate the access against the VMA (or deliver SIGSEGV/SIGBUS).
2. If the PMD entry points at a *shared* PTE table (refcount > 1) and the
   access needs to modify the table — any write, or a miss that requires
   installing an entry — copy the table first (``copy_shared_pte_table``).
3. If the PMD entry is write-protected but the table is no longer shared,
   this process is the sole surviving owner: flip the PMD write bit back
   on and continue.
4. Proceed exactly like a stock kernel: demand-zero anonymous pages,
   page-cache fills for file mappings, data-page COW (with the refcount-1
   reuse fast path), spurious-fault dismissal.

Huge (2 MiB) mappings fault at the PMD level: demand allocation of a
compound page and whole-page COW.

Steps 2-4 are :func:`~repro.kernel.bulkops.fault_piece`, run over the one
faulting page: a sweep runs the same code over whole tables, under the
one per-page cost rule described there.  This handler counts the fault,
validates it, and does what only a single fault does: the spurious-fault
charge, the one-page TLB shootdown and the ``fault.*`` tracepoints.
"""

from __future__ import annotations

from ..errors import BusError, OutOfMemoryError, SegmentationFault
from ..mem.page import PAGE_SIZE
from ..paging.entries import entry_pfn, is_huge
from ..paging.table import LEVEL_PTE, level_base, table_index
from .bulkops import EVENTS, FAULT_KINDS, check_access, fault_piece
from ..sancheck.annotations import acquires, must_hold
from ..trace import points


class FaultHandler:
    """Resolves MMU faults for every task on the machine."""

    def __init__(self, kernel):
        self.kernel = kernel

    @must_hold("mmap_lock")
    @acquires("ptl")
    def handle(self, task, vaddr, is_write):
        """Fix up a fault or raise ``SegmentationFault``/``BusError``."""
        kernel = self.kernel
        cost = kernel.cost
        mm = task.mm
        kernel.stats.page_faults += 1
        start_ns = cost.clock.now_ns
        page = vaddr & ~(PAGE_SIZE - 1)
        events = dict.fromkeys(EVENTS, 0)
        try:
            vma = check_access(mm, vaddr, vaddr + 1, is_write)
            pmd_table, pmd_index = mm.walk_to_pmd(vaddr, alloc=True)
            fault_piece(kernel, mm, vma, pmd_table, pmd_index,
                        level_base(vaddr, 2), page, page + PAGE_SIZE,
                        is_write, events)
        except (SegmentationFault, BusError, OutOfMemoryError):
            cost.charge_fault_base()  # the trap is paid before it fails
            raise
        n_faults = sum(map(events.__getitem__, FAULT_KINDS))
        if not n_faults:
            kernel.stats.spurious_faults += 1
            cost.charge_fault_base()
            cost.charge_fault_spurious()
        if points.enabled:
            _trace(mm, vma, vaddr, is_write, events, not n_faults)
        # A write to a swapped page the swap cache still shares resolved
        # two faults (swap-in, then COW): the second is counted and
        # flushed like the first.
        kernel.stats.page_faults += max(n_faults, 1) - 1
        for _ in range(max(n_faults, 1)):
            # A COW resolution may have switched the backing frame, so
            # the faulting page is purged from every CPU caching this mm
            # (remote vCPUs get an IPI; ptep_clear_flush_notify does the
            # same).
            kernel.tlbs.shootdown_page(mm, vaddr)
        if points.enabled:
            points.tracepoint(
                "fault.handle",
                dur_ns=cost.clock.now_ns - start_ns,
                vaddr=vaddr, write=is_write, huge_vma=vma.is_hugetlb)


def _trace(mm, vma, vaddr, is_write, events, spurious):
    """The instant tracepoint naming what one fault resolved."""
    if spurious:
        points.tracepoint("fault.spurious", vaddr=vaddr)
        return
    pmd_table, pmd_index = mm.walk_to_pmd(vaddr)
    entry = pmd_table.entries[pmd_index]
    if is_huge(entry):
        if events["huge_faults"] or events["huge_cow"] or events["cow_reuse"]:
            points.tracepoint("fault.huge", vaddr=vaddr,
                              cow=not events["huge_faults"],
                              reuse=bool(events["cow_reuse"]))
        return
    leaf = mm.resolve(int(entry_pfn(entry)))
    pfn = int(entry_pfn(leaf.entries[table_index(vaddr, LEVEL_PTE)]))
    if events["demand_zero"]:
        points.tracepoint("fault.demand_zero", pfn=pfn)
    elif events["file_fills"]:
        points.tracepoint("fault.file", vaddr=vaddr, pfn=pfn,
                          private_cow=vma.is_private and is_write)
    elif events["cow_pages"] or events["cow_reuse"]:
        points.tracepoint("fault.cow", vaddr=vaddr, pfn=pfn,
                          reuse=bool(events["cow_reuse"]))
