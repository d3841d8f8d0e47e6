"""On-demand-fork's address-space duplication (the paper's contribution).

Instead of replicating the leaf level, the child *shares* every last-level
PTE table with the parent (§3.1):

* the upper three levels are copied (they are a ~1/512 fraction of the
  tree, §2.2 — which is why sharing stops here);
* each shared leaf table's reference counter is incremented;
* write permission is disabled **once per table** by clearing the RW bit in
  the PMD entries of both parent and child — the hierarchical-attribute
  override (§3.2) write-protects the whole 2 MiB region without touching a
  single leaf entry;
* no data-page refcount is touched: the skipped ``compound_head`` /
  ``page_ref_inc`` per-PTE loop is precisely the 65x-270x invocation-time
  win of Figure 7.

The deferred work happens later, in the fault handler, one table at a
time (:func:`~repro.kernel.tableops.copy_shared_pte_table`).

One function does the sharing: :func:`share_pmd_range` shares any run of
slots inside one parent PMD table with a few numpy operations.  The
syscall passes whole tables (one pass per 1 GiB of address space); the
SMP fork flow passes one 2 MiB slot per call so the scheduler can
preempt between slots.  Vectorising is both for host speed and for
fidelity: the real implementation's cost is likewise dominated by one
refcount increment and one entry write per shared table, not by
per-page work.

Huge (PMD-level) entries have no leaf table to share; by default they are
copied eagerly like classic fork, which matches the paper's implementation
("only supports 4 kB pages").  The generalisation sketched in §4 — sharing
2 MiB mappings with a single permission drop per entry — is available as
the ``share_huge`` ablation flag.
"""

from __future__ import annotations

import numpy as np

from ..mem.page import HUGE_PAGE_ORDER
from ..paging.entries import (
    BIT_PS,
    BIT_RW,
    entry_pfn,
    present_mask,
    present_pfns,
)
from .fork import (
    ChildTreeBuilder,
    _slot_needs_cow,
    clone_vmas,
    iter_parent_pmd_tables,
)
from ..paging.table import LEVEL_PMD, PMD_REGION_SIZE, TABLE_SPAN
from .tableops import add_table_sharer, count_file_pages
from ..sancheck.annotations import (
    acquires,
    charge_deferred,
    must_hold,
    tlb_deferred,
)
from ..trace import points

_DROP_RW = np.uint64(~BIT_RW)

#: Deliberate-bug switch for the differential oracle's self-test: when
#: True, odfork skips writing the write-protected entries back into the
#: *parent's* PMD table, so parent writes bypass COW and leak into the
#: child.  Exists so ``tests/test_verify_oracle.py`` can prove the oracle
#: catches (and the shrinker minimizes) a real semantic divergence.
#: Never enable outside that test.
FAULT_INJECT_SKIP_PARENT_WP = False


@must_hold("mmap_lock")
def _apply_replica_share_policy(kernel, child_mm, leaf_pfns):
    """odfork x Mitosis: decide what sharing does to a table's replicas.

    The knob is ``NumaTopology.odfork_replica_policy``:

    * ``collapse`` frees the replicas on the spot (reason="share") —
      the table reverts to one primary until table-COW re-replicates;
    * ``share-all`` leaves them in place and entitles *every* sharer,
      so the child's shootdowns fan out to replica nodes too;
    * ``share-one`` (default) leaves them owned by the parent — nothing
      to do here; adoption happens at unshare/table-COW time.
    """
    mitosis = kernel.mitosis
    policy = mitosis.topology.odfork_replica_policy
    for leaf_pfn in leaf_pfns:
        if leaf_pfn not in mitosis.replicas:
            continue
        if policy == "collapse":
            mitosis.collapse_table(leaf_pfn, reason="share")
        elif policy == "share-all":
            child_mm.replicated = True


def _account_shared_tables_rss(kernel, child_mm, leaf_pfns):
    """Sharing leaf tables makes their present pages resident in the child.

    Accounted per shared range (not snapshot-copied at the end) so a
    concurrent reclaim that edits an already-shared table mid-odfork
    finds the child's RSS consistent with its mappings.  RSS is pure
    addition, so one packed gather of all the tables' rows suffices.
    """
    rows = np.fromiter((kernel.resolve_table(pfn).row
                        for pfn in leaf_pfns.tolist()),
                       dtype=np.int64, count=len(leaf_pfns))
    matrix = kernel.entry_store.gather(rows)
    data_pfns = present_pfns(matrix, present_mask(matrix))
    if len(data_pfns):
        n_file = count_file_pages(kernel, data_pfns)
        child_mm.add_rss(n_file, file_backed=True)
        child_mm.add_rss(len(data_pfns) - n_file, file_backed=False)


@must_hold("mmap_lock", "ptl")
@tlb_deferred("the PMD write-protect is batched; finish_odf_copy shoots the parent down once")
@charge_deferred("whole-mm callers charge charge_share_tables for the "
                 "summed count")
def share_pmd_range(kernel, parent_mm, child_mm, builder, pmd, start, end,
                    share_huge=False, charge_shared=False):
    """Share the leaf tables of ``pmd``'s present slots in ``[start, end)``.

    The range lies inside the 1 GiB the parent PMD table covers.  Huge
    entries in it are copied eagerly (or, with ``share_huge``, shared
    with one permission drop each) and charged here.  Returns the number
    of leaf tables shared.  ``charge_share_tables`` prices them once per
    call: here with ``charge_shared`` (the SMP flow's one-slot ranges),
    else by the caller for the whole mm.
    """
    table_base = start - start % TABLE_SPAN[LEVEL_PMD]
    lo = (start - table_base) // PMD_REGION_SIZE
    hi = (end - table_base) // PMD_REGION_SIZE
    entries = pmd.entries
    window = entries[lo:hi]
    present = present_mask(window)
    if not present.any():
        return 0
    kernel.failpoints.hit("odfork.share_table")
    child_pmd, _ = builder.pmd_for(start)
    huge = (window & BIT_PS) != np.uint64(0)
    leaf_positions = np.nonzero(present & ~huge)[0] + lo
    huge_positions = np.nonzero(present & huge)[0] + lo
    count = len(leaf_positions)

    if count:
        # Vectorised §3.5: one refcount increment per shared table and
        # one write-protected PMD entry on each side.
        pfns = entry_pfn(entries[leaf_positions]).astype(np.int64)
        kernel.pages.pt_refcount[pfns] += 1
        for leaf_pfn in pfns.tolist():
            kernel.san_access("pt", leaf_pfn)
            add_table_sharer(kernel, leaf_pfn, child_mm)
        _account_shared_tables_rss(kernel, child_mm, pfns)
        if kernel.mitosis is not None:
            _apply_replica_share_policy(kernel, child_mm, pfns.tolist())
        protected = entries[leaf_positions] & _DROP_RW
        if not FAULT_INJECT_SKIP_PARENT_WP:
            entries[leaf_positions] = protected
        child_pmd.entries[leaf_positions] = protected
        # The PMD write-protect edits the parent's (replicated) PMD
        # table, and populates the child's fresh one.
        kernel.note_table_write(pmd, count)
        kernel.note_table_write(child_pmd, count)
        child_mm.nr_pte_tables += count
        if charge_shared:
            kernel.cost.charge_share_tables(count)
        if points.enabled:
            points.tracepoint("odfork.share_table", table_base=start,
                              n_shared=count, n_huge=len(huge_positions))

    cost = kernel.cost
    for pmd_index in huge_positions.tolist():
        entry = entries[pmd_index]
        kernel.pages.ref_inc(int(entry_pfn(entry)))
        slot_start = table_base + pmd_index * PMD_REGION_SIZE
        if _slot_needs_cow(parent_mm, slot_start) or share_huge:
            entry &= _DROP_RW
            entries[pmd_index] = entry
        child_pmd.entries[pmd_index] = entry
        child_mm.add_rss(1 << HUGE_PAGE_ORDER, file_backed=False)
        if share_huge:
            # §4 generalisation: one permission-drop per 2 MiB entry,
            # charged like a table share instead of the eager copy.
            cost.charge_share_tables(1)
        else:
            cost.charge_copy_huge_entries(1)
    return count


@must_hold("mmap_lock")
@acquires("ptl")
def copy_mm_odf(kernel, parent_mm, child_mm, share_huge=False):
    """Share ``parent_mm``'s leaf tables into ``child_mm`` (§3.1, §3.5)."""
    builder = begin_odf_copy(kernel, parent_mm, child_mm)
    shared_tables = 0
    for pmd, table_base in iter_parent_pmd_tables(parent_mm):
        shared_tables += share_pmd_range(
            kernel, parent_mm, child_mm, builder, pmd, table_base,
            table_base + TABLE_SPAN[LEVEL_PMD], share_huge)
    kernel.cost.charge_share_tables(shared_tables)
    finish_odf_copy(kernel, parent_mm, child_mm, builder, shared_tables)
    return shared_tables


@must_hold("mmap_lock")
def begin_odf_copy(kernel, parent_mm, child_mm):
    """Fixed-cost prologue of an on-demand-fork (task + VMAs + tree root)."""
    kernel.cost.charge_odfork_fixed(len(parent_mm.vmas))
    clone_vmas(parent_mm, child_mm)
    return ChildTreeBuilder(child_mm)


@must_hold("mmap_lock")
def finish_odf_copy(kernel, parent_mm, child_mm, builder, shared_tables):
    """Epilogue: upper-level copy, RSS/lineage, and the write-protect
    shootdown.

    The PMD write-protect just revoked write permission on the whole
    shared region, so stale *writable* translations must be invalidated
    in every TLB that may cache this address space — the caller's view
    and every remote vCPU running the same ``mm`` — or a cached-writable
    CPU would keep scribbling on frames the child now shares.
    """
    kernel.cost.charge_upper_copy(builder.upper_tables_created)
    parent_mm.odf_lineage = True
    child_mm.odf_lineage = True
    kernel.tlbs.shootdown_mm(parent_mm)
    kernel.stats.odforks += 1
    kernel.stats.tables_shared += shared_tables
    if points.enabled:
        points.tracepoint("odfork.share_done", shared_tables=shared_tables,
                          upper_tables=builder.upper_tables_created)
