"""Fail-point injection: deterministic allocation-failure testing.

Every fallible allocation or copy path in the kernel calls
``kernel.failpoints.hit("module.operation")`` immediately before the real
allocation.  In normal operation the layer is inert (``active`` is False
and ``hit`` returns at once); the verify harness uses it two ways:

* **record mode** counts how often each site fires while a trace runs, so
  the enumeration driver knows the space of possible failures;
* **armed mode** makes the Nth hit of one chosen site raise
  :class:`~repro.errors.OutOfMemoryError` (once), exercising exactly the
  unwind path a genuine allocation failure at that point would take.

Sites are named ``<module>.<operation>`` (e.g. ``fork.copy_slot``,
``fault.cow_copy``); the full list lives in MECHANISM.md §11.  Because a
hit fires *before* the allocation, the injected OOM leaves the kernel in
the same state a real ``alloc_*`` failure would — the harness then audits
refcounts and asserts no frames leaked.
"""

from __future__ import annotations

from ..errors import OutOfMemoryError

#: Every failpoint site in the tree, ``<module>.<operation>``.  The
#: static checker resolves each literal ``hit()``/``fails()`` call
#: against this registry (and flags stale entries), so the verify
#: harness's enumeration driver can trust the list is complete.
SITES = frozenset({
    "dlm.acquire_timeout",
    "faas.invoke_fork",
    "faas.queue_overflow",
    "faas.template_alloc",
    "fault.cow_copy",
    "fault.demand_zero",
    "fault.file_cow",
    "fault.huge_alloc",
    "fault.huge_cow",
    "fault.pte_table_alloc",
    "fault.swap_in",
    "fork.copy_slot",
    "fork.upper_table",
    "gateway.queue_overflow",
    "mitosis.replica_alloc",
    "mm.pgd_alloc",
    "mm.upper_table_alloc",
    "mremap.move_slot",
    "mremap.target_leaf",
    "nic.tx_drop",
    "numa.node_alloc",
    "odfork.share_table",
    "pagecache.fill",
    "reclaim.swap_slot",
    "tableops.table_cow",
    "thp.collapse",
    "thp.split",
    "thp.split_table",
})


class FailPoints:
    """Per-kernel injection registry (inert unless a harness enables it)."""

    __slots__ = ("active", "counts", "armed_site", "armed_nth", "fired")

    def __init__(self):
        self.active = False
        self.counts = {}
        self.armed_site = None
        self.armed_nth = 0
        self.fired = False

    # ---- harness control -------------------------------------------------

    def record(self):
        """Count hits without failing anything (the enumeration's dry run)."""
        self.active = True
        self.counts = {}
        self.armed_site = None
        self.armed_nth = 0
        self.fired = False

    def arm(self, site, nth=1):
        """Make the ``nth`` hit of ``site`` raise a clean OOM, once."""
        if nth < 1:
            raise ValueError("nth must be >= 1")
        self.active = True
        self.counts = {}
        self.armed_site = site
        self.armed_nth = nth
        self.fired = False

    def disarm(self):
        """Back to inert; keeps ``counts`` readable for the harness."""
        self.active = False
        self.armed_site = None
        self.armed_nth = 0

    # ---- kernel-side hooks -----------------------------------------------

    def hit(self, site):
        """Called by kernel paths right before a fallible allocation."""
        if not self.active:
            return
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        if (not self.fired and site == self.armed_site
                and count == self.armed_nth):
            self.fired = True
            raise OutOfMemoryError(
                f"failpoint {site} (hit {count}) injected allocation failure"
            )

    def fails(self, site):
        """Non-raising variant for paths that report failure by value
        (e.g. a full swap device)."""
        if not self.active:
            return False
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        if (not self.fired and site == self.armed_site
                and count == self.armed_nth):
            self.fired = True
            return True
        return False
