"""Property tests for reclaim & swap under random mmap/fork/write traffic.

Random operation scripts interleave page writes, forks, reclaim passes
(both kswapd-style and direct), partial unmaps, child mremaps to another
offset inside the 2 MiB table, and child exits on a machine small enough
that swap traffic is routine.  After every step the shadow copies must
read back exactly, the full kernel audit — page refcounts, swap_map,
rmap, LRU membership, sharer registry — must hold, and the reverse map's
lookup must return, for every mapped anonymous frame, exactly the live
leaf tables a brute-force scan finds mapping it, in creation order.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st
import numpy as np

from repro import MIB, Machine
from repro.mem.page import PG_ANON, PG_FILE
from repro.paging.entries import entry_pfn, present_mask
from repro.paging.table import LEVEL_PTE
from repro.verify.audit import audit_machine

REGION = 2 * MIB
PAGE = 4096
N_PAGES = REGION // PAGE

ops = st.lists(
    st.tuples(
        st.sampled_from(["write_parent", "write_child", "read_parent",
                         "read_child", "reclaim", "kswapd", "fork",
                         "odfork", "exit_child", "unmap_piece",
                         "snapshot", "restore", "mremap_child"]),
        st.integers(0, N_PAGES - 1),
    ),
    min_size=4, max_size=24,
)


def check_lookups(kernel):
    """``tables_for`` against a scan of every live leaf table."""
    found = defaultdict(list)   # pfn -> leaf pfns, creation order
    for table in kernel._tables.values():
        if table.level != LEVEL_PTE:
            continue
        entries = table.entries
        pfns = np.unique(entry_pfn(entries[present_mask(entries)]))
        flags = kernel.pages.flags[pfns.astype(np.int64)]
        anon = ((flags & PG_ANON) != 0) & ((flags & PG_FILE) == 0)
        for pfn in pfns[anon].tolist():
            found[pfn].append(table.pfn)
    rmap = kernel.rmap
    mapped = np.flatnonzero(rmap.mapcount).tolist()
    assert sorted(found) == mapped
    for pfn in mapped:
        assert rmap.tables_for(pfn, count=False) == found[pfn], pfn


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(script=ops)
def test_reclaim_interleaved_with_lineages(script):
    # Small enough that reclaim targets hit mapped pages; big enough that
    # page tables and the page cache always fit.
    machine = Machine(phys_mb=8, swap_mb=16)
    kernel = machine.kernel
    parent = machine.spawn_process("root")
    region = parent.mmap(REGION)
    # A guard mapping right after the region: a growing mremap must move.
    parent.mmap(PAGE)

    shadow_parent = {}
    shadow_child = None
    child = None
    # The child's page p lives at child_base + p * PAGE for p >= child_lo
    # (mremap_child moves it and drops the pages below child_lo).
    child_base, child_lo = region, 0
    snapshot = None
    snapshot_shadow = None
    unmapped = set()
    counter = 0

    for op, page in script:
        counter += 1
        payload = f"{counter:08d}".encode()
        addr = region + page * PAGE
        if op == "write_parent":
            if page in unmapped:
                continue
            parent.write(addr, payload)
            shadow_parent[page] = payload
        elif op == "write_child" and child is not None:
            if page in unmapped or page < child_lo:
                continue
            child.write(child_base + page * PAGE, payload)
            shadow_child[page] = payload
        elif op == "read_parent" and page not in unmapped:
            expected = shadow_parent.get(page)
            if expected is not None:
                assert parent.read(addr, 8) == expected
        elif op == "read_child" and child is not None and page not in unmapped:
            expected = shadow_child.get(page)
            if expected is not None:
                assert child.read(child_base + page * PAGE, 8) == expected
        elif op == "reclaim":
            kernel.reclaim.shrink(max(8, page), from_kswapd=False)
        elif op == "kswapd":
            machine.run_kswapd()
        elif op in ("fork", "odfork") and child is None:
            child = parent.odfork() if op == "odfork" else parent.fork()
            shadow_child = dict(shadow_parent)
        elif op == "exit_child" and child is not None:
            child.exit()
            parent.wait()
            child = None
            shadow_child = None
            child_base, child_lo = region, 0
        elif op == "unmap_piece" and child is None and page not in unmapped:
            parent.munmap(addr, PAGE)
            unmapped.add(page)
            shadow_parent.pop(page, None)
        elif op == "snapshot" and child is None and snapshot is None:
            snapshot = parent.snapshot()
            snapshot_shadow = dict(shadow_parent)
        elif (op == "restore" and snapshot is not None and child is None
              and not unmapped):
            # munmap can free a snapshotted leaf table; only restore while
            # the geometry is unchanged since creation.
            snapshot.restore()
            shadow_parent = dict(snapshot_shadow)
        elif (op == "mremap_child" and child is not None and child_lo == 0
              and not unmapped):
            # Drop the child's first k pages, then grow the rest past the
            # guard: the move lands 2 MiB-aligned, so every entry shifts
            # k slots inside its new table and the frames it still shares
            # with the parent sit at two different indices.
            k = page % 16 + 1
            child.munmap(region, k * PAGE)
            moved = child.mremap(region + k * PAGE, REGION - k * PAGE,
                                 REGION - (k - 1) * PAGE)
            child_base, child_lo = moved - k * PAGE, k
            for dropped in range(k):
                shadow_child.pop(dropped, None)

        audit_machine(machine)
        check_lookups(kernel)

    for page, expected in shadow_parent.items():
        assert parent.read(region + page * PAGE, 8) == expected
    if child is not None:
        for page, expected in shadow_child.items():
            assert child.read(child_base + page * PAGE, 8) == expected
        child.exit()
        parent.wait()
    if snapshot is not None:
        snapshot.discard()
    audit_machine(machine)
    parent.exit()
    machine.init_process.wait()
    audit_machine(machine)
    assert kernel.swap.used_slots == 0
    assert len(kernel.swap_cache) == 0
    assert len(kernel.reclaim.active) + len(kernel.reclaim.inactive) == 0
