"""Range-size equivalence: whole-table ranges vs one-slot ranges.

Fork and exit have one implementation each, a vectorised walk over a
range of PMD slots whose size only observable state picks.  Every
scenario below runs twice — once plain (whole-table ranges), once with
``failpoints.record()`` active, which forces one-slot ranges without
failing anything — and asserts a *complete* fingerprint match: logical
memory content, per-process RSS, vmstat counters, kernel stats, and the
virtual clock down to the nanosecond.  The clock assertion is the strong
one: the whole-table walk replays the per-slot charge stream through the
same noise draws, so even the jittered virtual time must agree exactly.
The buddy allocator's placement (live free lists, allocation map) must
match too: whole-table ranges allocate and free their leaf tables in
batches, one-slot ranges in batches of one.

The fingerprints are additionally frozen as golden constants, recorded
when fork and exit still had a separate per-event implementation (and,
for the munmap, DONTNEED, shrink and swap scenarios, when munmap still
had its own per-slot zap): a moved golden means the kernel's behaviour
changed, not just its speed, and needs a deliberate reseed.
"""

import hashlib

import numpy as np
import pytest

from repro import Machine
from repro.kernel.fastpath import fast_copy_mm_classic
from repro.kernel.kernel import MADV_DONTNEED, MADV_HUGEPAGE
from repro.numa.topology import NumaTopology
from repro.sancheck.kasan import KasanState
from repro.smp import ops
from repro.trace import points
from repro.trace.tracer import Tracer

MIB = 1024 * 1024


def fingerprint(machine, procs_and_regions):
    """Digest everything the equivalence contract promises is identical."""
    h = hashlib.sha256()
    for process, regions in procs_and_regions:
        if not process.alive:
            h.update(b"dead")
            continue
        h.update(str(process.rss_bytes).encode())
        for addr, length in regions:
            h.update(process.read(addr, length))
    for key in sorted(machine.vmstat()):
        h.update(f"{key}={machine.vmstat()[key]}".encode())
    stats = machine.stats
    for name in ("forks", "odforks", "page_faults", "cow_faults",
                 "demand_zero_faults", "tables_shared"):
        h.update(f"{name}={getattr(stats, name)}".encode())
    h.update(str(machine.kernel.clock.now_ns).encode())
    h.update(str(machine.used_frames()).encode())
    return h.hexdigest()[:16]


def placement(machine):
    """The allocator's live free lists and allocation map: batched table
    allocation and release must hand out and take back the same frames,
    in the same order, as batches of one."""
    allocator = machine.kernel.allocator
    zones = getattr(allocator, "zones", [allocator])    # NUMA: per node
    return [(zone.free_blocks(), zone._alloc_order.tolist())
            for zone in zones]


def run_paired(scenario, golden=None, **machine_kwargs):
    prints = {}
    placements = {}
    for label in ("whole-table", "one-slot"):
        machine = Machine(**machine_kwargs)
        if label == "one-slot":
            machine.kernel.failpoints.record()
        tracked = scenario(machine)
        prints[label] = fingerprint(machine, tracked)
        placements[label] = placement(machine)
    assert prints["whole-table"] == prints["one-slot"], (
        f"whole-table ranges diverged from one-slot ranges: {prints}")
    assert placements["whole-table"] == placements["one-slot"], (
        "whole-table ranges placed frames differently from one-slot ranges")
    if golden is not None:
        assert prints["one-slot"] == golden, (
            f"the kernel's behaviour moved (got {prints['one-slot']!r}); "
            f"reseed the golden only if the change is deliberate")
    return prints["one-slot"]


# ---------------------------------------------------------------------- #
# scenarios


def classic_fork_flow(machine):
    parent = machine.spawn_process("parent")
    addr = parent.mmap(4 * MIB)
    parent.touch_range(addr, 4 * MIB, write=True)
    parent.write(addr + 123, b"parent-before-fork")
    child = parent.fork("child")
    child.write(addr + 123, b"child-after-fork!!")
    parent.touch_range(addr, 1 * MIB, write=True)
    grandchild = child.fork("grandchild")
    grandchild.write(addr + 2 * MIB, b"gc")
    tracked = [(parent, [(addr, 4 * MIB)]), (child, [(addr, 4 * MIB)]),
               (grandchild, [(addr, 4 * MIB)])]
    child.exit()
    return tracked


def odfork_flow(machine):
    parent = machine.spawn_process("parent")
    addr = parent.mmap(6 * MIB)
    parent.touch_range(addr, 6 * MIB, write=True)
    parent.write(addr, b"shared tables ahead")
    child = parent.odfork("child")
    # Table-COW: first writes through shared tables copy one table each.
    child.write(addr + 1 * MIB, b"child table cow")
    parent.write(addr + 3 * MIB, b"parent table cow")
    sibling = parent.odfork("sibling")
    sibling.touch_range(addr, 2 * MIB, write=True)
    tracked = [(parent, [(addr, 6 * MIB)]), (child, [(addr, 6 * MIB)]),
               (sibling, [(addr, 6 * MIB)])]
    sibling.exit()
    return tracked


def fault_mix_flow(machine):
    proc = machine.spawn_process("faulty")
    a = proc.mmap(2 * MIB)
    b = proc.mmap(3 * MIB)
    proc.touch_range(a, 2 * MIB, write=False)   # demand-zero, read
    proc.touch_range(a, 1 * MIB, write=True)    # upgrade to dirty
    proc.touch_range(b, 3 * MIB, write=True)
    proc.madvise(b, 1 * MIB, MADV_DONTNEED)     # zap, then refault
    proc.touch_range(b, 1 * MIB, write=True)
    child = proc.fork("reader")
    child.touch_range(a, 2 * MIB, write=False)
    child.write(b + 5000, b"cow one page")
    return [(proc, [(a, 2 * MIB), (b, 3 * MIB)]),
            (child, [(a, 2 * MIB), (b, 3 * MIB)])]


def reclaim_flow(machine):
    # Small machine: the later allocations push past the watermark and
    # wake reclaim, swapping cold pages out; the fork copy falls back to
    # one-slot ranges (headroom rule) and the exit releases tables with
    # live swap entries one at a time.
    proc = machine.spawn_process("hog")
    a = proc.mmap(8 * MIB)
    proc.touch_range(a, 8 * MIB, write=True)
    b = proc.mmap(8 * MIB)
    proc.touch_range(b, 8 * MIB, write=True)
    child = proc.fork("c")
    child.touch_range(a, 1 * MIB, write=True)
    child.exit()
    proc.touch_range(a, 2 * MIB, write=False)
    return [(proc, [(a, 8 * MIB), (b, 8 * MIB)])]


def thp_flow(machine):
    proc = machine.spawn_process("huge")
    addr = proc.mmap(8 * MIB)
    proc.madvise(addr, 8 * MIB, MADV_HUGEPAGE)
    proc.touch_range(addr, 8 * MIB, write=True)
    proc.write(addr + 4096, b"huge page payload")
    child = proc.fork("child")       # huge entries copied with refcounts
    child.write(addr + 2 * MIB + 7, b"huge cow in child")
    sib = proc.odfork("sib")
    sib.touch_range(addr, 4 * MIB, write=False)
    tracked = [(proc, [(addr, 8 * MIB)]), (child, [(addr, 8 * MIB)]),
               (sib, [(addr, 8 * MIB)])]
    child.exit()
    return tracked


def numa_flow(machine):
    # With a NUMA topology both runs use one-slot ranges (Mitosis
    # coherence and distance charges are per slot), so the pair must
    # agree trivially; the golden pins the NUMA behaviour itself.
    proc = machine.spawn_process("numa")
    addr = proc.mmap(4 * MIB)
    proc.touch_range(addr, 4 * MIB, write=True)
    child = proc.odfork("child")
    child.write(addr + MIB, b"replicated tables")
    tracked = [(proc, [(addr, 4 * MIB)]), (child, [(addr, 4 * MIB)])]
    child.exit()
    return tracked


def duplicate_pfn_exit_flow(machine):
    # One file mapped twice by the same process: its leaf table maps each
    # page cache page twice, so the exit drops two references per page
    # in one table and must not batch them as one.
    blob = machine.kernel.fs.create("/data/twice", size=1 * MIB)
    blob.set_initial_contents(b"mapped twice", offset=0)
    reader = machine.spawn_process("reader")
    keep = reader.mmap_shared(1 * MIB, file=blob)
    proc = machine.spawn_process("twice")
    first = proc.mmap_shared(1 * MIB, file=blob)
    second = proc.mmap_shared(1 * MIB, file=blob)
    proc.touch_range(first, 1 * MIB, write=False)
    proc.write(second + 64, b"via the second mapping")
    reader.touch_range(keep, 1 * MIB, write=False)
    tracked = [(reader, [(keep, 1 * MIB)]), (proc, [])]
    proc.exit()
    return tracked


def _aligned_region(proc, size):
    """``size`` bytes of a fresh mapping, starting on a 2 MiB boundary."""
    addr = proc.mmap(size + 2 * MIB)
    return (addr + 2 * MIB - 1) & ~(2 * MIB - 1)


def munmap_mixed_slots_flow(machine):
    # One munmap covering, in address order: a partly unmapped shared
    # slot (copy-then-zap), a slot the child copied for itself, two
    # fork-shared slots, a THP slot, and a partly unmapped edge.
    parent = machine.spawn_process("parent")
    base = _aligned_region(parent, 12 * MIB)
    parent.madvise(base + 8 * MIB, 2 * MIB, MADV_HUGEPAGE)
    parent.touch_range(base, 12 * MIB, write=True)
    parent.write(base + 3 * MIB, b"dedicated slot")
    child = parent.odfork("child")
    child.write(base + 2 * MIB + 64, b"own table")
    child.write(base + 8 * MIB + 5, b"huge cow")
    child.munmap(base + 1 * MIB, 10 * MIB)
    child.write(base + 11 * MIB, b"tail survives")
    parent.write(base + 4 * MIB, b"parent still maps it")
    return [(parent, [(base, 12 * MIB)]),
            (child, [(base, 1 * MIB), (base + 11 * MIB, 1 * MIB)])]


def dontneed_hole_flow(machine):
    # A DONTNEED hole inside an odfork-shared table copies the table
    # first; the sibling sharing it keeps every page.
    parent = machine.spawn_process("parent")
    base = _aligned_region(parent, 4 * MIB)
    parent.touch_range(base, 4 * MIB, write=True)
    parent.write(base + 1 * MIB, b"under the hole")
    child = parent.odfork("child")
    sibling = parent.odfork("sibling")
    child.madvise(base + 1 * MIB - 64 * 1024, 128 * 1024, MADV_DONTNEED)
    child.touch_range(base + 1 * MIB, 4096, write=False)
    child.madvise(base + 2 * MIB, 2 * MIB, MADV_DONTNEED)
    sibling.write(base + 3 * MIB, b"sibling writes")
    return [(parent, [(base, 4 * MIB)]), (child, [(base, 4 * MIB)]),
            (sibling, [(base, 4 * MIB)])]


def shrink_flow(machine):
    # mremap and brk shrink through munmap: partial tails and whole
    # slots, with a classic-fork child still mapping the pages.
    proc = machine.spawn_process("shrinker")
    addr = proc.mmap(7 * MIB)
    proc.touch_range(addr, 7 * MIB, write=True)
    proc.write(addr + 2 * MIB, b"kept by mremap")
    child = proc.fork("child")
    addr = proc.mremap(addr, 7 * MIB, 3 * MIB)
    heap = proc.brk()
    proc.brk(heap + 6 * MIB)
    proc.touch_range(heap, 6 * MIB, write=True)
    proc.write(heap + 100, b"heap head")
    sharer = proc.odfork("sharer")
    proc.brk(heap + 1 * MIB)
    sharer.brk(heap + 3 * MIB + 4096)
    return [(proc, [(addr, 3 * MIB), (heap, 1 * MIB)]),
            (child, [(addr, 7 * MIB)]),
            (sharer, [(heap, 3 * MIB)])]


def munmap_swapped_flow(machine):
    # Pressure swaps cold pages out; the munmap then releases tables
    # holding live swap entries, one table at a time.
    proc = machine.spawn_process("hog")
    a = _aligned_region(proc, 8 * MIB)
    proc.touch_range(a, 8 * MIB, write=True)
    proc.write(a + 6 * MIB, b"swapped then unmapped")
    b = proc.mmap(16 * MIB)
    proc.touch_range(b, 16 * MIB, write=True)
    child = proc.odfork("child")
    proc.munmap(a + 1 * MIB, 6 * MIB)
    child.munmap(a, 8 * MIB)
    return [(proc, [(a, 1 * MIB), (a + 7 * MIB, 1 * MIB), (b, 16 * MIB)]),
            (child, [(b, 16 * MIB)])]


# ---------------------------------------------------------------------- #
# golden fingerprints (see module docstring for reseed policy)

GOLDEN = {
    "classic": "3c71f69aae696780",
    "odfork": "5289d2a9052b416e",
    "fault_mix": "f299722d2beef818",
    "reclaim": "21c0383a7f9429d1",
    "thp": "6d25909a7c898384",
    "numa": "f3140b6a0f20b844",
    "duplicate_pfn_exit": "b1b53e1bdf8e108f",
    "munmap_mixed_slots": "ac3f44d7193e22dd",
    "dontneed_hole": "a5aba12c4942f35b",
    "shrink": "aaedf4442757692b",
    "munmap_swapped": "397fb2e77e03b864",
}


class TestFastPathEquivalence:
    def test_classic_fork_flow(self):
        run_paired(classic_fork_flow, GOLDEN["classic"], phys_mb=128)

    def test_odfork_flow(self):
        run_paired(odfork_flow, GOLDEN["odfork"], phys_mb=128)

    def test_fault_mix_flow(self):
        run_paired(fault_mix_flow, GOLDEN["fault_mix"], phys_mb=128)

    def test_reclaim_flow(self):
        run_paired(reclaim_flow, GOLDEN["reclaim"], phys_mb=24, swap_mb=32)

    def test_thp_flow(self):
        run_paired(thp_flow, GOLDEN["thp"], phys_mb=128)

    def test_numa_flow(self):
        run_paired(numa_flow, GOLDEN["numa"], phys_mb=128,
                   numa=NumaTopology(nodes=2))

    def test_duplicate_pfn_exit_flow(self):
        run_paired(duplicate_pfn_exit_flow, GOLDEN["duplicate_pfn_exit"],
                   phys_mb=128)

    def test_munmap_mixed_slots_flow(self):
        run_paired(munmap_mixed_slots_flow, GOLDEN["munmap_mixed_slots"],
                   phys_mb=128)

    def test_dontneed_hole_flow(self):
        run_paired(dontneed_hole_flow, GOLDEN["dontneed_hole"], phys_mb=128)

    def test_shrink_flow(self):
        run_paired(shrink_flow, GOLDEN["shrink"], phys_mb=128)

    def test_munmap_swapped_flow(self):
        run_paired(munmap_swapped_flow, GOLDEN["munmap_swapped"],
                   phys_mb=24, swap_mb=32)


# ---------------------------------------------------------------------- #
# range size


def _parent_with_memory(**machine_kwargs):
    machine = Machine(phys_mb=64, **machine_kwargs)
    parent = machine.spawn_process("parent")
    addr = parent.mmap(4 * MIB)
    parent.touch_range(addr, 4 * MIB, write=True)
    parent.write(addr, b"range size")
    return machine, parent, addr


def _with_tracer(machine):
    prev = points.current()
    points.attach(Tracer())

    def undo():
        points.detach()
        if prev is not None:
            points.attach(prev)
    return undo


def _with_failpoints(mode):
    def apply(machine):
        failpoints = machine.kernel.failpoints
        if mode == "record":
            failpoints.record()
        else:
            failpoints.arm("fork.copy_slot", 1000)
        return failpoints.disarm
    return apply


def _with_sanitizer(component):
    # Attach KASAN to one component only, so each of the two sanitizer
    # hooks is shown to force one-slot ranges on its own.
    def apply(machine):
        owner = getattr(machine.kernel, component)
        owner.sanitizer = KasanState(machine.kernel.allocator,
                                     machine.kernel.phys)

        def undo():
            owner.sanitizer = None
        return undo
    return apply


def _short_headroom(machine):
    # Leave fewer free frames than the copy needs: the whole-table walk
    # cannot prove it avoids reclaim.
    hog = machine.kernel.allocator.alloc_bulk(
        machine.kernel.allocator.free_frames - 2)
    return lambda: machine.kernel.allocator.free_bulk(hog)


#: Each observer (or the headroom rule) that requires one-slot ranges:
#: ``(machine kwargs factory, setup returning an undo callable or None)``.
SLOT_RANGE_CONDITIONS = {
    "tracer": (dict, _with_tracer),
    "failpoints-recording": (dict, _with_failpoints("record")),
    "failpoints-armed": (dict, _with_failpoints("arm")),
    "kasan": (lambda: {"sanitize": "kasan"}, None),
    "allocator-sanitizer": (dict, _with_sanitizer("allocator")),
    "phys-sanitizer": (dict, _with_sanitizer("phys")),
    "kcsan": (lambda: {"smp": 2, "sanitize": "kcsan"}, None),
    "smp": (lambda: {"smp": 2}, None),
    "numa": (lambda: {"numa": NumaTopology(nodes=2)}, None),
    "headroom-short": (dict, _short_headroom),
}


class TestEngagementPredicate:
    """Whole-table ranges engage on a kernel fork only without observers."""

    def test_tracing_disengages(self, monkeypatch):
        from repro.kernel import kernel as kernel_mod

        calls = []
        fast = kernel_mod.fast_copy_mm_classic
        slow = kernel_mod.copy_mm_classic

        def spy_fast(*args):
            engaged = fast(*args)
            calls.append(("whole-table", engaged))
            return engaged

        def spy_slow(*args):
            calls.append(("one-slot", None))
            return slow(*args)

        monkeypatch.setattr(kernel_mod, "fast_copy_mm_classic", spy_fast)
        monkeypatch.setattr(kernel_mod, "copy_mm_classic", spy_slow)
        machine, parent, addr = _parent_with_memory()

        undo = _with_tracer(machine)
        try:
            traced_child = parent.fork()
        finally:
            undo()
        assert calls == [("whole-table", False), ("one-slot", None)]

        del calls[:]
        plain_child = parent.fork()
        assert calls == [("whole-table", True)]
        assert (traced_child.read(addr, 4 * MIB)
                == plain_child.read(addr, 4 * MIB)
                == parent.read(addr, 4 * MIB))


class TestRangeSize:
    @pytest.mark.parametrize("condition", sorted(SLOT_RANGE_CONDITIONS))
    def test_condition_requires_slot_ranges(self, condition):
        kwargs, setup = SLOT_RANGE_CONDITIONS[condition]
        machine, parent, _ = _parent_with_memory(**kwargs())
        kernel = machine.kernel
        child = kernel._new_task(parent=parent.task, name="child")
        undo = setup(machine) if setup is not None else None
        try:
            engaged = fast_copy_mm_classic(kernel, parent.mm, child.mm)
        finally:
            if undo is not None:
                undo()
        assert engaged is False
        assert len(child.mm.vmas) == 0
        assert child.mm.nr_pte_tables == 0 and child.mm.rss_pages == 0
        assert child.mm.pgd.present_indices().size == 0

    def test_unobserved_copy_uses_whole_tables(self):
        machine, parent, addr = _parent_with_memory()
        kernel = machine.kernel
        child = kernel._new_task(parent=parent.task, name="child")
        assert fast_copy_mm_classic(kernel, parent.mm, child.mm) is True
        assert child.mm.nr_pte_tables == 2
        assert child.mm.rss_pages == parent.mm.rss_pages

    def test_smp_fork_flow_child_reads_like_plain_fork(self):
        children = {}
        for label, kwargs in (("smp", {"smp": 2}), ("plain", {})):
            machine, parent, addr = _parent_with_memory(**kwargs)
            parent.write(addr + 3 * MIB, b"second table")
            if machine.smp is not None:
                task = machine.smp.spawn(
                    "fork", ops.fork_flow(machine.smp, parent), mm=parent.mm)
                machine.smp.run()
                child = task.result["child"]
            else:
                child = parent.fork()
            children[label] = child.read(addr, 4 * MIB)
        assert children["smp"] == children["plain"]


class TestBatchedTableLifecycle:
    """Batched table allocation and release show the allocator the same
    single-frame operation sequence as batches of one."""

    @staticmethod
    def _allocator_calls(record_failpoints):
        machine = Machine(phys_mb=64)
        if record_failpoints:
            machine.kernel.failpoints.record()
        allocator = machine.kernel.allocator
        calls = []
        single_alloc, single_free = allocator.alloc, allocator.free
        bulk_free, batch_alloc = allocator.free_bulk, allocator.alloc_order0

        def alloc(order=0):
            pfn = single_alloc(order)
            calls.append(("alloc", pfn, order))
            return pfn

        def alloc_order0(n):
            pfns = batch_alloc(n)
            calls.extend(("alloc", pfn, 0) for pfn in pfns.tolist())
            return pfns

        def free(pfn, order=None):
            calls.append(("free", pfn, order))
            single_free(pfn, order)

        def free_bulk(pfns):
            calls.append(("free_bulk", sorted(pfns.tolist())))
            bulk_free(pfns)

        parent = machine.spawn_process("parent")
        addr = parent.mmap(12 * MIB)
        parent.touch_range(addr, 12 * MIB, write=True)
        allocator.alloc, allocator.free = alloc, free
        allocator.alloc_order0, allocator.free_bulk = alloc_order0, free_bulk
        child = parent.fork("child")
        for k in range(6):   # a COW page in every other leaf table
            child.write(addr + k * 2 * MIB + 4096 * k, b"cow")
        child.exit()
        parent.wait()
        return calls

    def test_same_allocator_sequence_as_batches_of_one(self):
        whole = self._allocator_calls(record_failpoints=False)
        slot = self._allocator_calls(record_failpoints=True)
        assert sum(call[0] == "free_bulk" for call in whole) == 6
        assert whole == slot

    def test_second_fork_leaves_parent_rows_unwritten(self, monkeypatch):
        from repro.paging.store import EntryStore

        machine, parent, addr = _parent_with_memory()
        store = machine.kernel.entry_store
        parent.fork().exit()
        parent.wait()
        rows = [leaf.row for _, _, leaf in parent.mm.leaf_tables()]
        before = store.gather(rows)
        scattered = []
        scatter = EntryStore.scatter

        def spy(self, target_rows, matrix):
            scattered.extend(np.asarray(target_rows).tolist())
            return scatter(self, target_rows, matrix)

        monkeypatch.setattr(EntryStore, "scatter", spy)
        child = parent.fork()
        assert not set(scattered) & set(rows)
        assert (store.gather(rows) == before).all()
        assert child.read(addr, 4 * MIB) == parent.read(addr, 4 * MIB)
