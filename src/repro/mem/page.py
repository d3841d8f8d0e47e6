"""``struct page`` metadata for every physical frame.

Linux describes each physical 4 KiB frame with a ``struct page``; the fork
leaf loop's hot spots (Figure 3) are exactly accesses to this array:
``compound_head()`` reads it and ``page_ref_inc()`` atomically increments
its refcount.  We model the array as parallel numpy vectors indexed by page
frame number (pfn), which is both faithful (contiguous memmap-style layout)
and fast (fork and teardown update refcounts for whole PTE tables with one
vectorised operation).

The paper's implementation note (§4 "Memory Usage") stores the shared-PTE-
table reference counter in an unused union inside ``struct page``; we mirror
that with a dedicated ``pt_refcount`` vector that is only meaningful for
frames flagged ``PG_PAGETABLE``.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError, KernelBug

PAGE_SIZE = 4096
PAGE_SHIFT = 12
PTRS_PER_TABLE = 512
HUGE_PAGE_ORDER = 9                      # 2 MiB on x86-64
HUGE_PAGE_SIZE = PAGE_SIZE << HUGE_PAGE_ORDER

# Page flags (subset of the kernel's enum pageflags relevant to the model).
PG_ANON = 1 << 0
PG_FILE = 1 << 1
PG_PAGETABLE = 1 << 2
PG_COMPOUND_HEAD = 1 << 3
PG_COMPOUND_TAIL = 1 << 4
PG_DIRTY = 1 << 5
PG_RESERVED = 1 << 6


class PageStructArray:
    """Per-frame metadata: refcounts, flags, and compound-page linkage.

    All vectors are allocated with ``np.zeros`` which commits memory lazily,
    so configuring a machine with tens of millions of frames costs only what
    is actually touched.
    """

    def __init__(self, n_frames):
        if n_frames <= 0:
            raise InvalidArgumentError("machine needs at least one frame")
        self.n_frames = int(n_frames)
        self.refcount = np.zeros(self.n_frames, dtype=np.int32)
        self.pt_refcount = np.zeros(self.n_frames, dtype=np.int32)
        self.flags = np.zeros(self.n_frames, dtype=np.uint16)
        self.compound_order = np.zeros(self.n_frames, dtype=np.int8)
        # compound_head[pfn] is the head pfn for tail pages, -1 otherwise.
        self.compound_head = np.full(self.n_frames, -1, dtype=np.int64)

    # ---- single-frame helpers (used by page tables and small paths) ----

    def get_ref(self, pfn):
        """Current page refcount."""
        return int(self.refcount[pfn])

    def set_ref(self, pfn, value):
        """Force a page refcount (tests/bootstrap only)."""
        self.refcount[pfn] = value

    def ref_inc(self, pfn):
        """Increment one page's refcount; returns the new value."""
        self.refcount[pfn] += 1
        return int(self.refcount[pfn])

    def ref_dec(self, pfn):
        """Decrement and return the new refcount; negative counts are bugs."""
        self.refcount[pfn] -= 1
        new = int(self.refcount[pfn])
        if new < 0:
            raise KernelBug(f"page refcount underflow on pfn {pfn}")
        return new

    def pt_ref(self, pfn):
        """Current PTE-table share count (§3.5)."""
        return int(self.pt_refcount[pfn])

    def pt_ref_inc(self, pfn):
        """Increment a table's share count; returns the new value."""
        self.pt_refcount[pfn] += 1
        return int(self.pt_refcount[pfn])

    def pt_ref_dec(self, pfn):
        """Decrement a table's share count; returns the new value."""
        self.pt_refcount[pfn] -= 1
        new = int(self.pt_refcount[pfn])
        if new < 0:
            raise KernelBug(f"PTE-table refcount underflow on pfn {pfn}")
        return new

    def set_flags(self, pfn, flag_bits):
        """OR flag bits into a frame's flags."""
        self.flags[pfn] |= flag_bits

    def clear_flags(self, pfn, flag_bits):
        """Clear flag bits from a frame's flags."""
        self.flags[pfn] &= ~np.uint16(flag_bits)

    def has_flags(self, pfn, flag_bits):
        """Whether all of ``flag_bits`` are set."""
        return bool(self.flags[pfn] & flag_bits)

    def resolve_compound_head(self, pfn):
        """Return the head pfn of the compound page containing ``pfn``."""
        head = int(self.compound_head[pfn])
        return pfn if head < 0 else head

    # ---- bulk (vectorised) operations used by fork and teardown ---------

    @staticmethod
    def _has_duplicates(pfns):
        if len(pfns) < 2:
            return False
        ordered = np.sort(pfns)
        return bool((ordered[1:] == ordered[:-1]).any())

    def ref_inc_bulk(self, pfns):
        """Increment refcounts for an array of pfns (duplicates allowed).

        Fancy-index increment when the pfns are unique (the overwhelmingly
        common case: a table maps each page once); ``np.add.at`` — which is
        duplicate-safe but an order of magnitude slower — otherwise.  One
        pfn (a one-page fault) takes the scalar update, several times
        cheaper than fancy indexing a one-element array.
        """
        if len(pfns) == 1:
            self.refcount[int(pfns[0])] += 1
        elif self._has_duplicates(pfns):
            np.add.at(self.refcount, pfns, 1)
        else:
            self.refcount[pfns] += 1

    def ref_dec_bulk(self, pfns):
        """Decrement refcounts; return the pfns whose count reached zero."""
        if len(pfns) == 1:  # a one-page fault: the scalar update
            pfns = np.asarray(pfns)
            return pfns if self.ref_dec(int(pfns[0])) == 0 else pfns[:0]
        if self._has_duplicates(pfns):
            np.add.at(self.refcount, pfns, -1)
        else:
            self.refcount[pfns] -= 1
        counts = self.refcount[pfns]
        if np.any(counts < 0):
            bad = np.asarray(pfns)[counts < 0]
            raise KernelBug(f"page refcount underflow on pfns {bad[:8].tolist()}")
        zeroed = np.asarray(pfns)[counts == 0]
        # Duplicated pfns in the input can appear once per duplicate; a
        # unique pass keeps the free list clean.
        return np.unique(zeroed) if len(zeroed) else zeroed

    def set_flags_bulk(self, pfns, flag_bits):
        """OR flag bits into many frames at once."""
        self.flags[pfns] |= np.uint16(flag_bits)

    def clear_flags_bulk(self, pfns, flag_bits):
        """Clear flag bits from many frames at once."""
        self.flags[pfns] &= ~np.uint16(flag_bits)

    # ---- lifecycle -------------------------------------------------------

    def on_alloc(self, pfn, flag_bits):
        """Initialise metadata for a fresh order-0 allocation."""
        if self.refcount[pfn] != 0:
            raise KernelBug(f"allocating pfn {pfn} with live refcount")
        self.refcount[pfn] = 1
        self.flags[pfn] = flag_bits
        self.compound_order[pfn] = 0
        self.compound_head[pfn] = -1

    def on_alloc_bulk(self, pfns, flag_bits):
        """Initialise metadata for many fresh order-0 allocations."""
        if len(pfns) == 1:  # a one-page fault: the scalar path
            self.on_alloc(int(pfns[0]), flag_bits)
            return
        if np.any(self.refcount[pfns] != 0):
            raise KernelBug("bulk-allocating frames with live refcounts")
        self.refcount[pfns] = 1
        self.flags[pfns] = flag_bits
        self.compound_order[pfns] = 0
        self.compound_head[pfns] = -1

    def on_alloc_compound(self, head_pfn, order, flag_bits):
        """Initialise a compound page: head carries the order, tails link back."""
        n = 1 << order
        span = np.arange(head_pfn, head_pfn + n)
        if np.any(self.refcount[span] != 0):
            raise KernelBug("allocating compound page over live frames")
        self.refcount[head_pfn] = 1
        self.flags[head_pfn] = flag_bits | PG_COMPOUND_HEAD
        self.compound_order[head_pfn] = order
        tails = span[1:]
        self.flags[tails] = flag_bits | PG_COMPOUND_TAIL
        self.compound_head[tails] = head_pfn

    def on_free(self, pfn):
        """Reset metadata when a frame (or compound head) is freed."""
        order = int(self.compound_order[pfn])
        if self.flags[pfn] & PG_COMPOUND_HEAD:
            span = np.arange(pfn, pfn + (1 << order))
            self.flags[span] = 0
            self.compound_head[span] = -1
            self.compound_order[span] = 0
            self.refcount[span] = 0
            self.pt_refcount[span] = 0
        else:
            self.flags[pfn] = 0
            self.compound_head[pfn] = -1
            self.compound_order[pfn] = 0
            self.refcount[pfn] = 0
            self.pt_refcount[pfn] = 0

    def on_free_bulk(self, pfns):
        """Reset metadata for many order-0 frames at once."""
        self.flags[pfns] = 0
        self.compound_head[pfns] = -1
        self.compound_order[pfns] = 0
        self.refcount[pfns] = 0
        self.pt_refcount[pfns] = 0

    # ---- diagnostics -------------------------------------------------------

    def live_frames(self):
        """Number of frames with a non-zero refcount (for leak tests)."""
        return int(np.count_nonzero(self.refcount))

    def check_no_negative(self):
        """Assert no refcount anywhere went negative."""
        if np.any(self.refcount < 0) or np.any(self.pt_refcount < 0):
            raise KernelBug("negative refcount detected")
