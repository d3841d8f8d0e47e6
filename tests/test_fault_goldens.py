"""Byte-path fault goldens: one noise-off scenario per fault kind.

Every scenario below drives faults through ``write``/``read``/``touch``
only — the byte path, one page fault at a time — and digests everything
a fault can change: logical memory content, per-process RSS, vmstat,
every kernel counter, used frames, and the virtual clock to the
nanosecond.  The goldens were recorded while the byte path still had an
implementation of its own, separate from the sweep's; a moved golden
means a one-page fault no longer does what that handler did.

Each scenario also asserts the counter of the kind it is named for, so
none of them can go vacuous.
"""

import dataclasses
import hashlib

import pytest

from repro import BusError, Machine, SegmentationFault
from repro.kernel.vma import MAP_PRIVATE
from repro.numa.topology import NumaTopology
from repro.paging.table import PMD_REGION_SIZE

MIB = 1024 * 1024
PAGE = 4096
HUGE = PMD_REGION_SIZE


def fingerprint(machine, procs_and_regions):
    h = hashlib.sha256()
    for process, regions in procs_and_regions:
        if not process.alive:
            h.update(b"dead")
            continue
        h.update(str(process.rss_bytes).encode())
        for addr, length in regions:
            h.update(process.read(addr, length))
    vmstat = machine.vmstat()
    for key in sorted(vmstat):
        h.update(f"{key}={vmstat[key]}".encode())
    for key, value in sorted(dataclasses.asdict(machine.kernel.stats).items()):
        h.update(f"{key}={value}".encode())
    h.update(str(machine.kernel.clock.now_ns).encode())
    h.update(str(machine.used_frames()).encode())
    return h.hexdigest()[:16]


def _write_pages(proc, addr, pages, tag):
    for page in pages:
        proc.write(addr + page * PAGE + 17, tag + bytes([page & 0xFF]))


# ---------------------------------------------------------------------- #
# scenarios: each returns (tracked regions, the counter it must move)


def demand_zero(machine):
    proc = machine.spawn_process("dz")
    addr = proc.mmap(3 * MIB)
    _write_pages(proc, addr, range(0, 40, 3), b"dz")
    proc.read(addr + 600 * PAGE, 64)            # read fault, other slot
    proc.touch(addr + 601 * PAGE, 1, write=True)
    proc.touch(addr + 700 * PAGE, 3 * PAGE, write=False)
    return [(proc, [(addr, 3 * MIB)])], "demand_zero_faults"


def cow_after_fork(machine):
    parent = machine.spawn_process("parent")
    addr = parent.mmap(4 * MIB)
    _write_pages(parent, addr, range(0, 1024, 7), b"p")
    child = parent.fork("child")
    _write_pages(child, addr, range(0, 600, 11), b"c")
    _write_pages(parent, addr, range(3, 900, 13), b"P")
    return [(parent, [(addr, 4 * MIB)]), (child, [(addr, 4 * MIB)])], \
        "cow_faults"


def cow_after_odfork(machine):
    parent = machine.spawn_process("parent")
    addr = parent.mmap(6 * MIB)
    _write_pages(parent, addr, range(0, 1536, 5), b"p")
    child = parent.odfork("child")
    # The first write per shared slot copies the table, then the page.
    _write_pages(child, addr, range(1, 1536, 97), b"c")
    _write_pages(parent, addr, range(2, 1200, 131), b"P")
    sibling = parent.odfork("sibling")
    sibling.read(addr + 700 * PAGE, 32)
    sibling.write(addr + 700 * PAGE, b"sibling")
    # A hole in a shared table: demand-zero needs the table copy too.
    sibling.write(addr + 1 * PAGE, b"hole")
    return [(parent, [(addr, 6 * MIB)]), (child, [(addr, 6 * MIB)]),
            (sibling, [(addr, 6 * MIB)])], "table_cow_copies"


def cow_reuse_after_exit(machine):
    parent = machine.spawn_process("parent")
    addr = parent.mmap(2 * MIB)
    _write_pages(parent, addr, range(0, 200), b"p")
    for use_odf in (False, True):
        child = parent.odfork("c") if use_odf else parent.fork("c")
        child.write(addr + 3 * PAGE, b"child")
        child.exit()
        parent.wait()
        _write_pages(parent, addr, range(0, 200, 9), b"R")
    return [(parent, [(addr, 2 * MIB)])], "cow_reuse"


def shared_anon_write_notify(machine):
    proc = machine.spawn_process("shm")
    addr = proc.mmap_shared(1 * MIB)
    _write_pages(proc, addr, range(0, 64, 2), b"s")
    proc.read(addr + 100 * PAGE, 16)
    proc.mprotect(addr, 1 * MIB, 1)             # PROT_READ
    proc.mprotect(addr, 1 * MIB, 3)             # PROT_READ | PROT_WRITE
    before = machine.kernel.clock.now_ns
    _write_pages(proc, addr, range(0, 64, 4), b"n")
    proc.write(addr + 100 * PAGE, b"notify")
    assert machine.kernel.clock.now_ns > before
    child = proc.fork("child")
    child.write(addr + 5 * PAGE, b"child shares it")
    return [(proc, [(addr, 1 * MIB)]), (child, [(addr, 1 * MIB)])], \
        "page_faults"


def file_faults(machine):
    blob = machine.kernel.fs.create("/data/blob", size=96 * PAGE + 100)
    blob.set_initial_contents(b"head of file", offset=0)
    blob.set_initial_contents(b"page forty", offset=40 * PAGE)
    proc = machine.spawn_process("files")
    shared = proc.mmap_shared(100 * PAGE, file=blob)
    proc.read(shared, 32)                        # shared fill
    proc.write(shared + 40 * PAGE, b"shared write")
    proc.write(shared + 41 * PAGE, b"fill for write")
    private = proc.mmap(100 * PAGE, flags=MAP_PRIVATE, file=blob)
    proc.read(private + 40 * PAGE, 32)           # fill, then COW below
    proc.write(private + 40 * PAGE, b"cow from cache")
    proc.write(private + 60 * PAGE, b"private write")  # straight copy
    proc.read(private + 96 * PAGE, 8)            # tail page, inside EOF
    with pytest.raises(BusError):
        proc.read(private + 98 * PAGE, 8)
    with pytest.raises(SegmentationFault):
        proc.read(private + 200 * PAGE, 8)
    child = proc.fork("child")
    child.write(private + 40 * PAGE, b"child cow")
    child.write(shared + 2 * PAGE, b"child shared")
    return [(proc, [(shared, 97 * PAGE), (private, 97 * PAGE)]),
            (child, [(shared, 97 * PAGE), (private, 97 * PAGE)])], \
        "file_faults"


def hugetlb(machine):
    proc = machine.spawn_process("huge")
    addr = proc.mmap_huge(6 * MIB)
    proc.write(addr + 5, b"huge fill")
    proc.read(addr + HUGE + 9, 16)               # read fill
    child = proc.fork("child")
    child.write(addr + 77, b"huge cow")
    proc.write(addr + HUGE + 1, b"huge cow in parent")
    child.exit()
    proc.wait()
    proc.write(addr + 100, b"huge reuse")
    proc.write(addr + 2 * HUGE, b"third")
    return [(proc, [(addr, 6 * MIB)])], "huge_cow_faults"


def thp_entry(machine):
    from repro.kernel.kernel import MADV_HUGEPAGE
    proc = machine.spawn_process("thp")
    addr = proc.mmap(6 * MIB)
    base = (addr + HUGE - 1) & ~(HUGE - 1)
    proc.madvise(base, 4 * MIB, MADV_HUGEPAGE)
    proc.touch_range(base, 4 * MIB, write=True)
    assert machine.run_khugepaged(proc) == 2
    proc.write(base + 4096, b"thp payload")
    child = proc.fork("child")
    child.write(base + HUGE + 3, b"thp cow")
    proc.write(base + 11, b"thp cow parent")
    child.exit()
    proc.wait()
    proc.write(base + HUGE + 8, b"thp reuse")
    return [(proc, [(base, 4 * MIB)])], "huge_cow_faults"


def swap_in(machine):
    proc = machine.spawn_process("hog")
    a = proc.mmap(8 * MIB)
    proc.touch_range(a, 8 * MIB, write=True)
    _write_pages(proc, a, range(0, 2048, 64), b"a")
    b = proc.mmap(16 * MIB)
    proc.touch_range(b, 16 * MIB, write=True)
    machine.run_kswapd()
    assert machine.kernel.stats.pswpout > 0
    child = proc.fork("child")
    for page in range(0, 2048, 64):
        proc.read(a + page * PAGE + 17, 4)       # swap-in (or cache hit)
    for page in range(32, 2048, 128):
        child.write(a + page * PAGE, b"w2s")      # write to swapped
    _write_pages(proc, a, range(16, 2048, 256), b"P")
    return [(proc, [(a, 8 * MIB)]), (child, [(a, 8 * MIB)])], "pswpin"


def numa_copy(machine):
    proc = machine.spawn_process("numa")
    addr = proc.mmap(4 * MIB)
    with machine.kernel.pin_to_node(0):
        _write_pages(proc, addr, range(0, 1024, 3), b"n")
    child = proc.odfork("child")
    with machine.kernel.pin_to_node(1):
        _write_pages(child, addr, range(0, 1024, 29), b"c")
        child.read(addr + 1000 * PAGE, 8)
    huge = proc.mmap_huge(4 * MIB)
    with machine.kernel.pin_to_node(0):
        proc.write(huge, b"huge on node 0")
    sib = proc.fork("sib")
    with machine.kernel.pin_to_node(1):
        sib.write(huge + 64, b"remote huge cow")
    return [(proc, [(addr, 4 * MIB), (huge, 4 * MIB)]),
            (child, [(addr, 4 * MIB)]), (sib, [(huge, 4 * MIB)])], \
        "numa_remote_accesses"


SCENARIOS = {
    "demand_zero": (demand_zero, {"phys_mb": 64}),
    "cow_after_fork": (cow_after_fork, {"phys_mb": 64}),
    "cow_after_odfork": (cow_after_odfork, {"phys_mb": 64}),
    "cow_reuse_after_exit": (cow_reuse_after_exit, {"phys_mb": 64}),
    "shared_anon_write_notify": (shared_anon_write_notify, {"phys_mb": 64}),
    "file_faults": (file_faults, {"phys_mb": 64}),
    "hugetlb": (hugetlb, {"phys_mb": 64}),
    "thp_entry": (thp_entry, {"phys_mb": 64}),
    "swap_in": (swap_in, {"phys_mb": 24, "swap_mb": 32}),
    "numa_copy": (numa_copy, {"phys_mb": 128,
                              "numa": NumaTopology(nodes=2)}),
}

GOLDEN = {
    "cow_after_fork": "735a94c40791cb12",
    "cow_after_odfork": "c302a08131f51598",
    "cow_reuse_after_exit": "1879af818296c3f9",
    "demand_zero": "82324155361aef18",
    "file_faults": "73c15313d5a11ad4",
    "hugetlb": "729878362ccae93e",
    "numa_copy": "1ccc6c3474a9f591",
    "shared_anon_write_notify": "b93177c6f0e22456",
    "swap_in": "05d4ec60232e7646",
    "thp_entry": "95056f6a2ae57045",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_byte_path_fault_golden(name):
    scenario, kwargs = SCENARIOS[name]
    machine = Machine(**kwargs)
    tracked, counter = scenario(machine)
    assert getattr(machine.kernel.stats, counter) > 0, counter
    got = fingerprint(machine, tracked)
    assert got == GOLDEN[name], (
        f"the byte-path fault behaviour moved (got {got!r}); reseed the "
        f"golden only if the change is deliberate")
