"""Fail-point-driven OOM unwind tests (kernel.failpoints).

Each test arms one fail-point site so a specific allocation deep inside an
operation fails, then proves the kernel surfaces a clean
``OutOfMemoryError`` and unwinds to an audit-clean machine with no leaked
frames, no half-built children, and no dangling refcounts — the paper's
robustness story for odfork depends on mid-copy failure being recoverable.
"""

from __future__ import annotations

import pytest
from repro.verify.audit import audit_machine
from conftest import make_filled_region

from repro import Machine, MIB, OutOfMemoryError
from repro.kernel.failpoints import FailPoints
from repro.paging import entry_pfn


@pytest.fixture
def swap_machine():
    """Small machine with swap so rmap/LRU paths are live."""
    return Machine(phys_mb=64, swap_mb=16)


# --------------------------------------------------------------------- #
# FailPoints mechanics


def test_failpoint_record_counts_hits(machine):
    fp = machine.kernel.failpoints
    fp.record()
    p = machine.spawn_process("p")
    make_filled_region(p, size=4 * MIB)
    p.fork()
    fp.disarm()
    assert fp.counts.get("fork.copy_slot", 0) >= 2
    assert fp.counts.get("fault.demand_zero", 0) >= 1


def test_failpoint_fires_exactly_once(machine):
    fp = machine.kernel.failpoints
    fp.arm("fork.copy_slot", nth=1)
    p = machine.spawn_process("p")
    make_filled_region(p, size=4 * MIB)
    with pytest.raises(OutOfMemoryError):
        p.fork()
    # Armed shots are one-time: the retry succeeds.
    child = p.fork()
    assert child.pid in machine.kernel.tasks
    audit_machine(machine)


def test_failpoint_arm_validates_nth():
    with pytest.raises(ValueError):
        FailPoints().arm("x", nth=0)


# --------------------------------------------------------------------- #
# Classic fork: mid-copy OOM unwinds the half-built child


def test_classic_fork_midcopy_oom_unwinds(machine):
    p = machine.spawn_process("p")
    addr, probes = make_filled_region(p, size=8 * MIB)
    tasks_before = set(machine.kernel.tasks)
    frames_before = machine.used_frames()

    # The region spans several PMD slots; fail the second slot's table
    # allocation so the child is torn down half-copied.
    machine.kernel.failpoints.arm("fork.copy_slot", nth=2)
    with pytest.raises(OutOfMemoryError):
        p.fork()

    assert set(machine.kernel.tasks) == tasks_before
    assert p.task.children == []
    assert machine.used_frames() == frames_before
    audit_machine(machine)
    # The parent is fully functional afterwards.
    assert p.read(addr + probes[1], 3) == b"\xabQ\x01"
    p.write(addr, b"still-writable")
    audit_machine(machine)


# --------------------------------------------------------------------- #
# odfork: mid-share and mid-table-COW OOM


def test_odfork_midshare_oom_unwinds(machine):
    p = machine.spawn_process("p")
    addr, probes = make_filled_region(p, size=8 * MIB)
    frames_before = machine.used_frames()

    machine.kernel.failpoints.arm("odfork.share_table", nth=1)
    with pytest.raises(OutOfMemoryError):
        p.odfork()

    assert p.task.children == []
    assert machine.used_frames() == frames_before
    audit_machine(machine)
    # The parent's address space is untouched by the aborted share.
    p.write(addr, b"post-abort write")
    assert p.read(addr, 4) == b"post"
    audit_machine(machine)


def test_odfork_table_cow_oom_leaves_sharing_intact(machine):
    p = machine.spawn_process("p")
    addr, _ = make_filled_region(p, size=4 * MIB)
    child = p.odfork()
    audit_machine(machine)

    # The child's first modifying fault needs a dedicated table copy
    # (§3.4); fail that allocation.
    machine.kernel.failpoints.arm("tableops.table_cow", nth=1)
    with pytest.raises(OutOfMemoryError):
        child.write(addr, b"denied")
    audit_machine(machine)

    # Sharing is untouched: both still read the original bytes, and the
    # write succeeds once memory is available again.
    assert p.read(addr, 3) == child.read(addr, 3)
    child.write(addr, b"now")
    assert child.read(addr, 3) == b"now"
    assert p.read(addr, 3) != b"now"
    audit_machine(machine)


# --------------------------------------------------------------------- #
# COW fault: the rmap pin must not outlive a failed allocation


def test_cow_fault_oom_drops_rmap_pin(swap_machine):
    machine = swap_machine
    p = machine.spawn_process("p")
    addr, _ = make_filled_region(p, size=1 * MIB)
    child = p.fork()
    # Resolve the shared frame the write would COW.
    walked = child.mm.walk_to_pmd(addr, alloc=False)
    leaf = child.mm.resolve(int(entry_pfn(walked[0].entries[walked[1]])))
    pfn = int(entry_pfn(leaf.entries[0]))
    refs_before = machine.pages.get_ref(pfn)

    machine.kernel.failpoints.arm("fault.cow_copy", nth=1)
    with pytest.raises(OutOfMemoryError):
        child.write(addr, b"x")

    assert machine.pages.get_ref(pfn) == refs_before
    audit_machine(machine)
    child.write(addr, b"y")  # retry succeeds
    audit_machine(machine)


# --------------------------------------------------------------------- #
# Snapshot creation: a mid-walk failure must discard the partial snapshot


def test_snapshot_create_oom_discards_partial_state(machine):
    p = machine.spawn_process("p")
    addr, _ = make_filled_region(p, size=8 * MIB)
    # Keep the odfork child alive: create() then has to unshare-copy the
    # shared leaf tables, which is the fallible allocation under test.
    child = p.odfork()

    machine.kernel.failpoints.arm("tableops.table_cow", nth=2)
    with pytest.raises(OutOfMemoryError):
        p.snapshot()

    assert machine.kernel.live_snapshots == []
    audit_machine(machine)

    snap = p.snapshot()  # retry works and behaves
    p.write(addr, b"scribble")
    snap.restore()
    assert p.read(addr, 3) == b"\xabQ\x00"
    snap.discard()
    child.exit()
    audit_machine(machine)


# --------------------------------------------------------------------- #
# Descriptor construction: PGD and upper-table allocations are fallible


def test_spawn_pgd_alloc_oom_leaves_no_task(machine):
    tasks_before = set(machine.kernel.tasks)
    frames_before = machine.used_frames()
    machine.kernel.failpoints.arm("mm.pgd_alloc", nth=1)
    with pytest.raises(OutOfMemoryError):
        machine.spawn_process("doomed")
    assert set(machine.kernel.tasks) == tasks_before
    assert machine.used_frames() == frames_before
    audit_machine(machine)
    # One-shot: the retry spawns normally.
    p = machine.spawn_process("survivor")
    assert p.pid in machine.kernel.tasks
    audit_machine(machine)


def test_upper_table_alloc_oom_unwinds_fault(machine):
    p = machine.spawn_process("p")
    addr = p.mmap(4 * MIB)
    # The first touch builds PUD+PMD; fail that mid-walk allocation.
    machine.kernel.failpoints.arm("mm.upper_table_alloc", nth=1)
    with pytest.raises(OutOfMemoryError):
        p.write(addr, b"x")
    audit_machine(machine)
    # The aborted walk left nothing the retry cannot reuse or rebuild.
    p.write(addr, b"retry ok")
    assert p.read(addr, 8) == b"retry ok"
    audit_machine(machine)


def test_fork_upper_table_oom_unwinds_child(machine):
    p = machine.spawn_process("p")
    addr, probes = make_filled_region(p, size=8 * MIB)
    frames_before = machine.used_frames()
    machine.kernel.failpoints.arm("fork.upper_table", nth=1)
    with pytest.raises(OutOfMemoryError):
        p.fork()
    assert p.task.children == []
    assert machine.used_frames() == frames_before
    audit_machine(machine)
    assert p.read(addr + probes[0], 2) == b"\xabQ"


def test_pagecache_fill_oom_is_retryable(machine):
    f = machine.kernel.fs.create("/data", size=64 * 1024)
    f.set_initial_contents(b"cached bytes")
    p = machine.spawn_process("p")
    from repro.kernel.vma import MAP_PRIVATE, PROT_READ
    addr = p.mmap(64 * 1024, prot=PROT_READ, flags=MAP_PRIVATE, file=f)
    machine.kernel.failpoints.arm("pagecache.fill", nth=1)
    with pytest.raises(OutOfMemoryError):
        p.read(addr, 6)
    audit_machine(machine)
    # The miss was not cached as a success: the retry fills and reads.
    assert p.read(addr, 6) == b"cached"
    audit_machine(machine)


# --------------------------------------------------------------------- #
# execve atomicity: a failed exec reports -ENOMEM, it does not kill
# the calling image (the fresh PGD is allocated before the old mm drops)


def test_execve_pgd_oom_preserves_old_image(machine):
    binary = machine.kernel.fs.create("/bin/app", size=48 * 1024)
    binary.set_initial_contents(b"\x7fELF app image")
    p = machine.spawn_process("p")
    addr = p.mmap(2 * MIB)
    p.write(addr, b"old image data")

    machine.kernel.failpoints.arm("mm.pgd_alloc", nth=1)
    with pytest.raises(OutOfMemoryError):
        p.execve(binary)

    # The caller's address space survived the failed exec intact.
    assert p.alive
    assert p.read(addr, 14) == b"old image data"
    audit_machine(machine)
    # And the retry replaces the image as usual.
    text, _stack = p.execve(binary)
    assert p.read(text, 4) == b"\x7fELF"
    audit_machine(machine)
