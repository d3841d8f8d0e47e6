"""struct-page metadata: refcounts, flags, compound pages, bulk ops."""

import numpy as np
import pytest

from repro.errors import KernelBug
from repro.mem import (
    HUGE_PAGE_ORDER,
    PG_ANON,
    PG_COMPOUND_HEAD,
    PG_COMPOUND_TAIL,
    PG_FILE,
    PG_PAGETABLE,
    PageStructArray,
)
from repro.mem.page import has_duplicates


@pytest.fixture
def pages():
    return PageStructArray(4096)


class TestSingleOps:
    def test_alloc_initialises(self, pages):
        pages.on_alloc(5, PG_ANON)
        assert pages.get_ref(5) == 1
        assert pages.has_flags(5, PG_ANON)
        assert pages.resolve_compound_head(5) == 5

    def test_double_alloc_detected(self, pages):
        pages.on_alloc(5, PG_ANON)
        with pytest.raises(KernelBug):
            pages.on_alloc(5, PG_ANON)

    def test_ref_inc_dec(self, pages):
        pages.on_alloc(1, PG_ANON)
        assert pages.ref_inc(1) == 2
        assert pages.ref_dec(1) == 1
        assert pages.ref_dec(1) == 0

    def test_underflow_detected(self, pages):
        pages.on_alloc(1, PG_ANON)
        pages.ref_dec(1)
        with pytest.raises(KernelBug):
            pages.ref_dec(1)

    def test_pt_refcount_independent(self, pages):
        pages.on_alloc(2, PG_PAGETABLE)
        pages.pt_refcount[2] = 1
        assert pages.pt_ref_inc(2) == 2
        assert pages.get_ref(2) == 1  # page refcount untouched
        assert pages.pt_ref_dec(2) == 1

    def test_flag_manipulation(self, pages):
        pages.on_alloc(3, PG_ANON)
        pages.set_flags(3, PG_FILE)
        assert pages.has_flags(3, PG_FILE)
        pages.clear_flags(3, PG_FILE)
        assert not pages.has_flags(3, PG_FILE)
        assert pages.has_flags(3, PG_ANON)

    def test_free_resets_everything(self, pages):
        pages.on_alloc(4, PG_ANON)
        pages.ref_inc(4)
        pages.on_free(4)
        assert pages.get_ref(4) == 0
        assert pages.flags[4] == 0


class TestCompoundPages:
    def test_compound_structure(self, pages):
        pages.on_alloc_compound(512, HUGE_PAGE_ORDER, PG_ANON)
        assert pages.has_flags(512, PG_COMPOUND_HEAD)
        assert pages.compound_order[512] == HUGE_PAGE_ORDER
        for tail in (513, 700, 1023):
            assert pages.has_flags(tail, PG_COMPOUND_TAIL)
            assert pages.resolve_compound_head(tail) == 512

    def test_compound_refcount_on_head_only(self, pages):
        pages.on_alloc_compound(512, HUGE_PAGE_ORDER, PG_ANON)
        assert pages.get_ref(512) == 1
        assert pages.get_ref(513) == 0

    def test_compound_free_clears_span(self, pages):
        pages.on_alloc_compound(1024, HUGE_PAGE_ORDER, PG_ANON)
        pages.on_free(1024)
        assert pages.flags[1024] == 0
        assert pages.flags[1500] == 0
        assert pages.compound_head[1500] == -1

    def test_compound_over_live_frames_detected(self, pages):
        pages.on_alloc(600, PG_ANON)
        with pytest.raises(KernelBug):
            pages.on_alloc_compound(512, HUGE_PAGE_ORDER, PG_ANON)


class TestBulkOps:
    def test_bulk_alloc_and_refcounts(self, pages):
        pfns = np.arange(10, 50, dtype=np.int64)
        pages.on_alloc_bulk(pfns, PG_ANON)
        assert (pages.refcount[pfns] == 1).all()
        pages.ref_inc_bulk(pfns)
        assert (pages.refcount[pfns] == 2).all()

    def test_bulk_dec_returns_zeroed(self, pages):
        pfns = np.arange(10, 20, dtype=np.int64)
        pages.on_alloc_bulk(pfns, PG_ANON)
        pages.ref_inc_bulk(pfns[:5])
        zeroed = pages.ref_dec_bulk(pfns)
        assert sorted(zeroed.tolist()) == list(range(15, 20))

    def test_bulk_with_duplicates(self, pages):
        pages.on_alloc(7, PG_ANON)
        dup = np.asarray([7, 7, 7], dtype=np.int64)
        pages.ref_inc_bulk(dup)
        assert pages.get_ref(7) == 4
        zeroed = pages.ref_dec_bulk(dup)
        assert pages.get_ref(7) == 1
        assert len(zeroed) == 0

    def test_bulk_underflow_detected(self, pages):
        pfns = np.asarray([3], dtype=np.int64)
        pages.on_alloc_bulk(pfns, PG_ANON)
        pages.ref_dec_bulk(pfns)
        with pytest.raises(KernelBug):
            pages.ref_dec_bulk(pfns)

    def test_bulk_free_resets(self, pages):
        pfns = np.arange(100, 200, dtype=np.int64)
        pages.on_alloc_bulk(pfns, PG_FILE)
        pages.on_free_bulk(pfns)
        assert (pages.refcount[pfns] == 0).all()
        assert (pages.flags[pfns] == 0).all()

    def test_live_frames_counter(self, pages):
        assert pages.live_frames() == 0
        pages.on_alloc_bulk(np.arange(5, dtype=np.int64), PG_ANON)
        assert pages.live_frames() == 5


class TestHasDuplicates:
    """The increasing-run shortcut never changes the answer."""

    @pytest.mark.parametrize("pfns", [
        [],
        [7],
        [1, 2, 3, 900, 4096],          # strictly increasing: no sort
        [1, 2, 2, 3],                   # equal neighbours
        [5, 1, 9, 1, 3],                # shuffled, duplicated
        [9, 4, 7, 1],                   # shuffled, unique
        [3, 3],
    ])
    def test_matches_unique_reference(self, pfns):
        pfns = np.asarray(pfns, dtype=np.int64)
        assert has_duplicates(pfns) == (len(np.unique(pfns)) < len(pfns))

    def test_random_arrays_match_reference(self):
        rng = np.random.default_rng(7)
        for size in (2, 17, 512, 4096):
            for pfns in (np.sort(rng.choice(1 << 20, size, replace=False)),
                         rng.integers(0, 2 * size, size)):
                assert has_duplicates(pfns) == (len(np.unique(pfns)) < size)
