"""A sweep and the same pages faulted one at a time agree.

`access_range` and the byte path's fault handler run one fault
implementation at two batch sizes: a whole range of leaf pieces, or the
one faulting page.  A sweep must therefore leave the address space in
the state a sweep of individual accesses would (same present pages, COW
events, refcounts and shared-table copies) and, with noise off, charge
exactly the same virtual time under every fault charge name.  These
tests run both batch sizes on twin machines and diff the results.
"""

import numpy as np
import pytest

from repro import MIB, Machine
from repro.kernel.kernel import MADV_HUGEPAGE
from repro.kernel.vma import MAP_PRIVATE
from repro.numa.topology import NumaTopology
from repro.paging import entry_pfn, present_mask, writable_mask
from repro.timing import costs


def twin_machines():
    return Machine(phys_mb=256), Machine(phys_mb=256)


def leaf_state(process, addr, n_pages):
    """(present, writable) masks over the first ``n_pages`` of a region."""
    present = []
    writable = []
    for page in range(n_pages):
        leaf = process.mm.get_pte_table(addr + page * 4096)
        if leaf is None:
            present.append(False)
            writable.append(False)
            continue
        index = ((addr + page * 4096) >> 12) & 511
        entry = leaf.entries[index]
        present.append(bool(present_mask(np.asarray([entry]))[0]))
        writable.append(bool(writable_mask(np.asarray([entry]))[0]))
    return present, writable


class TestDemandZeroEquivalence:
    def test_fill_matches_bytewise(self):
        bulk_m, byte_m = twin_machines()
        size = 256 * 1024
        bulk_p = bulk_m.spawn_process("bulk")
        byte_p = byte_m.spawn_process("byte")
        bulk_addr = bulk_p.mmap(size)
        byte_addr = byte_p.mmap(size)

        bulk_p.touch_range(bulk_addr, size, write=True)
        for offset in range(0, size, 4096):
            byte_p.write(byte_addr + offset, b"z")

        assert bulk_p.rss_bytes == byte_p.rss_bytes
        assert bulk_m.stats.demand_zero_faults == byte_m.stats.demand_zero_faults
        b_present, b_writable = leaf_state(bulk_p, bulk_addr, 64)
        y_present, y_writable = leaf_state(byte_p, byte_addr, 64)
        assert b_present == y_present
        assert b_writable == y_writable


class TestCowEquivalence:
    @pytest.mark.parametrize("use_odfork", [False, True])
    def test_post_fork_write_sweep(self, use_odfork):
        bulk_m, byte_m = twin_machines()
        size = 4 * MIB
        results = {}
        for label, machine in (("bulk", bulk_m), ("byte", byte_m)):
            p = machine.spawn_process(label)
            addr = p.mmap(size)
            p.touch_range(addr, size, write=True)
            child = p.odfork() if use_odfork else p.fork()
            sweep = 1 * MIB
            if label == "bulk":
                p.touch_range(addr, sweep, write=True)
            else:
                for offset in range(0, sweep, 4096):
                    p.write(addr + offset, b"w")
            results[label] = {
                "cow": machine.stats.cow_faults + machine.stats.cow_reuse,
                "table_copies": machine.stats.table_cow_copies,
                "unshares": machine.stats.table_unshares,
                "rss": p.rss_bytes,
                "state": leaf_state(p, addr, 32),
            }
        assert results["bulk"]["cow"] == results["byte"]["cow"]
        assert results["bulk"]["table_copies"] == results["byte"]["table_copies"]
        assert results["bulk"]["rss"] == results["byte"]["rss"]
        assert results["bulk"]["state"] == results["byte"]["state"]

    def test_read_sweep_after_odfork_no_events(self):
        bulk_m, byte_m = twin_machines()
        size = 2 * MIB
        for label, machine in (("bulk", bulk_m), ("byte", byte_m)):
            p = machine.spawn_process(label)
            addr = p.mmap(size)
            p.touch_range(addr, size, write=True)
            p.odfork()
            before = machine.stats.page_faults
            if label == "bulk":
                p.touch_range(addr, size, write=False)
            else:
                for offset in range(0, size, 4096):
                    p.read(addr + offset, 1)
            assert machine.stats.page_faults == before
            assert machine.stats.table_cow_copies == 0


#: Every name a fault charges under (the memcpy bandwidth charge is the
#: access's, not the fault's: a sweep books it once for the range).
FAULT_CHARGES = (
    costs.FN_FAULT_BASE, costs.FN_PAGE_COPY, costs.FN_PAGE_ZERO,
    costs.FN_PAGE_CACHE, costs.FN_PTE_ALLOC, costs.FN_BULK_COPY,
    costs.FN_TABLE_COPY, costs.FN_PT_UNSHARE, costs.FN_COMPOUND_HEAD,
    costs.FN_PAGE_REF_INC, costs.FN_READ_ONCE, costs.FN_VM_NORMAL_PAGE,
    costs.FN_COPY_ONE_PTE, costs.FN_SWAP_IN, costs.FN_SWAP_CACHE,
    costs.FN_NUMA_ACCESS, "bulk_demand_zero", "bulk_cow_reuse",
    "bulk_cow_copy",
)


def _anon(machine, size=1 * MIB):
    p = machine.spawn_process("p")
    return p, p.mmap(size), size


def _filled_then(fork):
    def setup(machine):
        p, addr, size = _anon(machine)
        p.touch_range(addr, size, write=True)
        p.write(addr + 5, b"before the fork")
        child = fork(p)
        return child, addr, size
    return setup


def _reuse(machine):
    p, addr, size = _anon(machine)
    p.touch_range(addr, size, write=True)
    p.fork().exit()
    p.wait()
    return p, addr, size


def _write_notify(machine):
    p = machine.spawn_process("p")
    addr = p.mmap_shared(1 * MIB)
    p.touch_range(addr, 1 * MIB, write=False)
    p.mprotect(addr, 1 * MIB, 1)
    p.mprotect(addr, 1 * MIB, 3)
    return p, addr, 1 * MIB


def _private_file(machine):
    blob = machine.kernel.fs.create("/data/blob", size=1 * MIB)
    blob.set_initial_contents(b"file page", offset=3 * 4096)
    p = machine.spawn_process("p")
    return p, p.mmap(1 * MIB, flags=MAP_PRIVATE, file=blob), 1 * MIB


def _shared_file(machine):
    blob = machine.kernel.fs.create("/data/blob", size=1 * MIB)
    p = machine.spawn_process("p")
    return p, p.mmap_shared(1 * MIB, file=blob), 1 * MIB


def _huge(fork):
    def setup(machine):
        p = machine.spawn_process("p")
        addr = p.mmap_huge(6 * MIB)
        if fork is None:
            return p, addr, 6 * MIB
        p.touch_range(addr, 6 * MIB, write=True)
        child = fork(p)
        return child, addr, 6 * MIB
    return setup


def _huge_reuse(machine):
    p = machine.spawn_process("p")
    addr = p.mmap_huge(6 * MIB)
    p.touch_range(addr, 6 * MIB, write=True)
    p.fork().exit()
    p.wait()
    return p, addr, 6 * MIB


def _thp_after_fork(machine):
    p = machine.spawn_process("p")
    addr = p.mmap(6 * MIB)
    base = (addr + 2 * MIB - 1) & ~(2 * MIB - 1)
    p.madvise(base, 4 * MIB, MADV_HUGEPAGE)
    p.touch_range(base, 4 * MIB, write=True)
    machine.run_khugepaged(p)
    return p.fork(), base, 4 * MIB


def _swapped(fork):
    def setup(machine):
        p = machine.spawn_process("p")
        a = p.mmap(8 * MIB)
        p.touch_range(a, 8 * MIB, write=True)
        b = p.mmap(16 * MIB)
        p.touch_range(b, 16 * MIB, write=True)
        machine.run_kswapd()
        assert machine.stats.pswpout > 0
        # Free the hog: the swap-ins below must not reclaim again, or
        # the two batch sizes would be faulting different working sets.
        p.munmap(b, 16 * MIB)
        return (fork(p) if fork else p), a, 2 * MIB
    return setup


def _numa_cow(machine):
    p, addr, size = _anon(machine)
    with machine.kernel.pin_to_node(0):
        p.touch_range(addr, size, write=True)
    machine.kernel._pinned_node = 1  # the child runs on the other node
    return p.odfork(), addr, size


#: ``case -> (machine kwargs, setup returning (process, addr, length),
#: is_write)``.
CASES = {
    "demand-zero-write": ({}, _anon, True),
    "demand-zero-read": ({}, _anon, False),
    "cow-after-fork": ({}, _filled_then(lambda p: p.fork()), True),
    "cow-after-odfork": ({}, _filled_then(lambda p: p.odfork()), True),
    "cow-reuse": ({}, _reuse, True),
    "write-notify": ({}, _write_notify, True),
    "private-file-write": ({}, _private_file, True),
    "private-file-read": ({}, _private_file, False),
    "shared-file-write": ({}, _shared_file, True),
    "hugetlb-fill": ({}, _huge(None), True),
    "hugetlb-cow": ({}, _huge(lambda p: p.fork()), True),
    "hugetlb-reuse": ({}, _huge_reuse, True),
    "thp-cow": ({}, _thp_after_fork, True),
    "swap-in-read": ({"phys_mb": 24, "swap_mb": 32}, _swapped(None), False),
    "swap-in-write": ({"phys_mb": 24, "swap_mb": 32},
                      _swapped(lambda p: p.fork()), True),
    "numa-cow": ({"numa": NumaTopology(nodes=2)}, _numa_cow, True),
}


class TestTimingEquivalence:
    @pytest.mark.parametrize("case", list(CASES))
    def test_sweep_charges_equal_page_faults(self, case):
        """Every fault charge name totals the same whether the pages are
        swept or faulted one at a time (noise off)."""
        kwargs, setup, is_write = CASES[case]
        charges = {}
        for label in ("sweep", "pages"):
            machine = Machine(**{"phys_mb": 256, **kwargs})
            proc, addr, length = setup(machine)
            machine.profiler.reset()
            faults = machine.stats.page_faults
            if label == "sweep":
                proc.touch_range(addr, length, write=is_write)
            else:
                for offset in range(0, length, 4096):
                    proc.touch(addr + offset, 1, write=is_write)
            charges[label] = (machine.profiler.breakdown(FAULT_CHARGES),
                              machine.stats.page_faults - faults)
        assert sum(charges["sweep"][0].values()) > 0
        assert charges["sweep"] == charges["pages"]
