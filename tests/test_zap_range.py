"""The zap walk's failure paths: reject before mutating, shoot down after.

``zap_range`` backs munmap, MADV_DONTNEED, mremap/brk shrinking and exit.
A call it rejects must change nothing, and a call that fails part-way
must still drop every translation of the range from the TLB: the frames
it already freed go back to the allocator, and a cached translation to
one of them would read or write whoever gets the frame next.
"""

import pytest

from repro import MIB, Machine
from repro.errors import InvalidArgumentError, OutOfMemoryError
from repro.kernel.kernel import MADV_DONTNEED


def test_dontneed_over_partial_hugetlb_slot_changes_nothing():
    machine = Machine(phys_mb=64)
    proc = machine.spawn_process("huge")
    huge = proc.mmap_huge(4 * MIB)
    proc.touch_range(huge, 4 * MIB, write=True)
    proc.write(huge, b"mine!!")  # leaves a huge translation in the TLB
    with pytest.raises(InvalidArgumentError):
        proc.madvise(huge, 3 * MIB, MADV_DONTNEED)
    assert proc.rss_bytes == 4 * MIB
    other = machine.spawn_process("other")
    page = other.mmap_huge(2 * MIB)
    other.write(page, b"other!")
    assert proc.read(huge, 6) == b"mine!!"
    assert proc.read(huge + 2 * MIB, 6) == bytes(6)


def test_munmap_over_partial_hugetlb_slot_changes_nothing():
    machine = Machine(phys_mb=64)
    proc = machine.spawn_process("huge")
    huge = proc.mmap_huge(4 * MIB)
    proc.touch_range(huge, 4 * MIB, write=True)
    vmas = len(proc.mm.vmas)
    with pytest.raises(InvalidArgumentError):
        proc.munmap(huge, 3 * MIB)
    assert proc.rss_bytes == 4 * MIB
    assert len(proc.mm.vmas) == vmas


def test_failed_munmap_still_shoots_the_range_down():
    machine = Machine(phys_mb=64)
    parent = machine.spawn_process("parent")
    mapped = parent.mmap(8 * MIB)
    base = (mapped + 2 * MIB - 1) & ~(2 * MIB - 1)
    parent.touch_range(base, 6 * MIB, write=True)
    child = parent.odfork()
    # Slot 0 becomes the child's own table and its TLB caches the page.
    child.write(base, b"child")
    assert child.mm.tlb.lookup(base, is_write=False) is not None
    # Slot 0 is freed and slot 1 put before the partial, still shared
    # slot 2 needs a table copy, which fails.
    machine.kernel.failpoints.arm("tableops.table_cow")
    try:
        with pytest.raises(OutOfMemoryError):
            child.munmap(base, 5 * MIB)
    finally:
        machine.kernel.failpoints.disarm()
    assert child.mm.tlb.lookup(base, is_write=False) is None
    assert child.read(base, 5) == bytes(5)
    assert parent.read(base, 5) == bytes(5)
