"""Reverse-map goldens: LRU order and eviction victims under reclaim.

Reclaim's choices rest on the reverse map twice over: the LRU lists are
fed by its 0 <-> mapped edges (a frame joins the active list at its
first mapping and leaves at its last), and every aging probe and unmap
finds the frame's PTEs through it.  Each noise-off scenario below drives
a machine into reclaim through every kind of mapping change the map
records — fork, odfork with table COW, a page mapped twice in one table,
a THP split, a snapshot restore, an mremap that moves pages to another
offset inside their leaf table, and (with NUMA) ``migrate_pages`` — and
digests, at several points, the active and inactive LRU order, the
sequence of eviction victims, vmstat and the virtual clock.  The goldens
were recorded while the reverse map was still a dict of dicts; a moved
golden means reclaim now picks, ages or evicts differently.
"""

import hashlib

import numpy as np
import pytest

from repro import Machine
from repro.kernel.kernel import MADV_HUGEPAGE
from repro.numa.topology import NumaTopology
from repro.paging.table import PMD_REGION_SIZE
from repro.verify.audit import audit_machine

MIB = 1024 * 1024
PAGE = 4096
HUGE = PMD_REGION_SIZE


class Recorder:
    """Digest LRU order, eviction victims, vmstat and clock as they go."""

    def __init__(self, machine):
        self.machine = machine
        self.hash = hashlib.sha256()
        self.victims = []
        reclaim = machine.kernel.reclaim
        evict = reclaim._evict

        def recording_evict(pfn):
            self.victims.append(pfn)
            return evict(pfn)

        reclaim._evict = recording_evict

    def checkpoint(self, label):
        machine = self.machine
        reclaim = machine.kernel.reclaim
        h = self.hash
        h.update(label.encode())
        h.update(repr(list(reclaim.active)).encode())
        h.update(repr(list(reclaim.inactive)).encode())
        h.update(repr(self.victims).encode())
        vmstat = machine.vmstat()
        for key in sorted(vmstat):
            h.update(f"{key}={vmstat[key]}".encode())
        h.update(str(machine.kernel.clock.now_ns).encode())

    def digest(self, reads):
        for data in reads:
            self.hash.update(data)
        return self.hash.hexdigest()[:16]


def _write_pages(proc, addr, pages, tag):
    for page in pages:
        proc.write(addr + page * PAGE + 9, tag + bytes([page & 0xFF]))


def lineage(machine):
    rec = Recorder(machine)
    parent = machine.spawn_process("parent")
    parent.mmap(3 * PAGE)                      # heap starts 3 pages into a slot
    heap = parent.mmap(4 * MIB)
    assert heap % HUGE == 3 * PAGE
    parent.touch_range(heap, 4 * MIB, write=True)
    _write_pages(parent, heap, range(0, 1024, 5), b"p")
    # One file mapped twice by the same process: its leaf table maps
    # each cache page twice (file pages stay out of the reverse map).
    blob = machine.kernel.fs.create("/data/twice", size=256 * PAGE)
    blob.set_initial_contents(b"mapped twice", offset=0)
    first = parent.mmap_shared(256 * PAGE, file=blob)
    second = parent.mmap_shared(256 * PAGE, file=blob)
    parent.touch_range(first, 256 * PAGE, write=False)
    parent.write(second + 64, b"via the second mapping")
    rec.checkpoint("parent")

    shared = parent.odfork("shared")
    _write_pages(shared, heap, range(1, 1024, 37), b"s")   # table COW + COW
    copied = parent.fork("copied")
    _write_pages(copied, heap, range(2, 1024, 41), b"c")
    # A reader that never writes keeps the parent's tables shared, so
    # reclaim has to unmap through shared tables in place.
    reader = parent.odfork("reader")
    reader.read(heap + 100 * PAGE, 8)
    rec.checkpoint("forks")

    # THP: promote a slot, then split it with a partial mprotect.
    thp_area = parent.mmap(2 * HUGE + HUGE)
    base = (thp_area + HUGE - 1) & ~(HUGE - 1)
    parent.madvise(base, 2 * HUGE, MADV_HUGEPAGE)
    parent.touch_range(base, 2 * HUGE, write=True)
    assert machine.run_khugepaged(parent) >= 1
    parent.mprotect(base, 16 * PAGE, 1)        # PROT_READ: split the slot
    rec.checkpoint("thp")

    # mremap: the odfork child moves its heap to a 2 MiB-aligned area
    # (the mapping after it blocks growth in place), shifting every entry
    # three slots left inside its new leaf tables.
    moved = shared.mremap(heap, 4 * MIB, 4 * MIB + PAGE)
    assert moved % HUGE == 0
    _write_pages(shared, moved, range(3, 1024, 53), b"m")
    rec.checkpoint("mremap")

    # Snapshot/restore in a third process.
    worker = machine.spawn_process("worker")
    work = worker.mmap(2 * MIB)
    _write_pages(worker, work, range(0, 512, 3), b"w")
    snap = worker.snapshot()
    _write_pages(worker, work, range(0, 512, 7), b"W")
    worker.touch_range(work + MIB, MIB, write=True)
    snap.restore()
    rec.checkpoint("restore")

    # Pressure: a hog drives kswapd and direct reclaim through every
    # table above.
    hog = machine.spawn_process("hog")
    area = hog.mmap(14 * MIB)
    hog.touch_range(area, 14 * MIB, write=True)
    rec.checkpoint("hog")
    machine.run_kswapd()
    rec.checkpoint("kswapd")
    reads = []
    for proc, addr in ((parent, heap), (shared, moved), (copied, heap)):
        for page in range(0, 1024, 31):
            reads.append(proc.read(addr + page * PAGE, 12))
    for page in range(0, 512, 29):
        reads.append(worker.read(work + page * PAGE, 12))
    reads.append(parent.read(base + 8 * PAGE, 16))
    rec.checkpoint("readback")
    for child in (shared, copied, reader):
        child.exit()
        parent.wait()
    snap.discard()
    machine.run_kswapd()
    rec.checkpoint("exits")
    stats = machine.kernel.stats
    assert stats.pgsteal > 0 and stats.shared_table_unmaps > 0
    assert stats.thp_splits > 0 and stats.table_cow_copies > 0
    assert stats.snapshot_restores > 0 and stats.pswpin > 0
    return rec, reads


def numa_migrate(machine):
    rec = Recorder(machine)
    kernel = machine.kernel
    proc = machine.spawn_process("numa")
    heap = proc.mmap(6 * MIB)
    with kernel.pin_to_node(0):
        proc.touch_range(heap, 6 * MIB, write=True)
        _write_pages(proc, heap, range(0, 1536, 7), b"n")
    child = proc.odfork("child")
    with kernel.pin_to_node(1):
        _write_pages(child, heap, range(0, 1536, 61), b"c")
    sibling = proc.fork("sibling")
    rec.checkpoint("forks")
    sibling.exit()
    proc.wait()
    # migrate_pages moves the frames only this process maps: a fresh
    # region, and the heap pages the child's writes COWed away.
    own = proc.mmap(2 * MIB)
    with kernel.pin_to_node(0):
        proc.touch_range(own, 2 * MIB, write=True)
    assert kernel.sys_migrate_pages(proc.task, 1) > 0
    rec.checkpoint("migrate")
    hog = machine.spawn_process("hog")
    area = hog.mmap(26 * MIB)
    hog.touch_range(area, 26 * MIB, write=True)
    rec.checkpoint("hog")
    machine.run_kswapd()
    reads = [proc.read(heap + page * PAGE, 12) for page in range(0, 1536, 43)]
    reads += [child.read(heap + page * PAGE, 12)
              for page in range(0, 1536, 43)]
    reads += [proc.read(own + page * PAGE, 12) for page in range(0, 512, 41)]
    rec.checkpoint("readback")
    assert kernel.stats.pgsteal > 0 and kernel.stats.pages_migrated > 0
    return rec, reads


SCENARIOS = {
    "lineage": (lineage, {"phys_mb": 24, "swap_mb": 64}),
    "numa_migrate": (numa_migrate, {"phys_mb": 32, "swap_mb": 64,
                                    "numa": NumaTopology(nodes=2)}),
}

GOLDEN = {
    "lineage": "1f024b64868582df",
    "numa_migrate": "f1205375075d6619",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_lru_and_victim_order_golden(name):
    scenario, kwargs = SCENARIOS[name]
    machine = Machine(**kwargs)
    rec, reads = scenario(machine)
    got = rec.digest(reads)
    assert got == GOLDEN[name], (
        f"reclaim's LRU order or victims moved (got {got!r}); reseed the "
        f"golden only if the change is deliberate")


def _fork_server(machine, heap_mb, rounds, writes, seed=7):
    """The overcommitted odfork server: odfork, random writes, exit."""
    rng = np.random.default_rng(seed)
    server = machine.spawn_process("fork-server")
    heap = server.mmap(heap_mb * MIB)
    server.touch_range(heap, heap_mb * MIB, write=True)
    for _ in range(rounds):
        child = server.odfork()
        for page in rng.integers(0, heap_mb * MIB // PAGE, size=writes):
            child.write(heap + int(page) * PAGE, b"request!")
        child.exit()
        server.wait()
    return server, heap


def test_overcommit_fork_server_looks_up_by_column():
    # Fork and table COW copy entries to the same index, so reclaim
    # under a 2x-overcommitted odfork server finds every frame through
    # its one column: lookups happen, and none needs a full scan.
    machine = Machine(phys_mb=8, swap_mb=32)
    _fork_server(machine, heap_mb=16, rounds=12, writes=24)
    stats = machine.stats()
    assert machine.kernel.stats.pgsteal > 0
    assert stats["rmap.lookups"] > 0
    assert stats["rmap.scattered_lookups"] == 0
    audit_machine(machine)


def test_mremap_to_another_offset_scatters_and_still_unmaps():
    machine = Machine(phys_mb=8, swap_mb=32)
    kernel = machine.kernel
    parent = machine.spawn_process("parent")
    parent.mmap(5 * PAGE)
    heap = parent.mmap(2 * MIB)
    parent.mmap(PAGE)                          # blocks growth in place
    parent.touch_range(heap, 2 * MIB, write=True)
    child = parent.fork("child")
    moved = child.mremap(heap, 2 * MIB, 2 * MIB + PAGE)
    assert moved % HUGE == 0 and heap % HUGE == 5 * PAGE
    rmap = kernel.rmap
    shared = np.flatnonzero(rmap.mapcount == 2)
    assert len(shared) > 0 and rmap.scattered[shared].all()
    pfn = int(shared[0])
    assert len(rmap.tables_for(pfn)) == 2
    assert rmap.scattered_lookups == 1
    audit_machine(machine)
    hog = machine.spawn_process("hog")
    hog.touch_range(hog.mmap(8 * MIB), 8 * MIB, write=True)
    assert kernel.stats.pgsteal > 0
    assert machine.stats()["rmap.scattered_lookups"] > 1
    audit_machine(machine)
    assert child.read(moved + 100 * PAGE, 4) == parent.read(heap + 100 * PAGE, 4)
    child.exit()
    parent.wait()
    # The mremapped mappings went with the child.  The auditor's
    # uncounted lookup leaves a frame as it is; the first counted lookup
    # finds its one mapping left and re-packs it to that column, so the
    # next lookups no longer scan every column.
    left = np.flatnonzero(rmap.scattered)
    assert len(left) > 0 and (rmap.mapcount[left] == 1).all()
    pfn = int(left[0])
    before = rmap.scattered_lookups
    found = rmap.tables_for(pfn, count=False)
    assert len(found) == 1
    assert rmap.scattered[pfn] and rmap.scattered_lookups == before
    assert rmap.tables_for(pfn) == found
    assert not rmap.scattered[pfn]
    assert rmap.scattered_lookups == before + 1
    assert rmap.tables_for(pfn) == found
    assert rmap.scattered_lookups == before + 1
    audit_machine(machine)
    parent.exit()
    machine.init_process.wait()
    assert not rmap.scattered.any()
    audit_machine(machine)
