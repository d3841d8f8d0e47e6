"""File-backed mappings, the page cache, and the in-memory filesystem."""

import pytest

from repro import (
    BusError,
    MAP_PRIVATE,
    MAP_SHARED,
    MIB,
    Machine,
    OutOfMemoryError,
    PROT_READ,
    PROT_WRITE,
)
from repro.errors import InvalidArgumentError

RW = PROT_READ | PROT_WRITE


@pytest.fixture
def file_with_contents(machine):
    f = machine.kernel.fs.create("/data/blob", size=256 * 1024)
    f.set_initial_contents(b"file header", offset=0)
    f.set_initial_contents(b"middle of file", offset=100 * 1024)
    return f


class TestFilesystem:
    def test_create_open_unlink(self, machine):
        fs = machine.kernel.fs
        f = fs.create("/tmp/x", size=100)
        assert fs.open("/tmp/x") is f
        assert fs.exists("/tmp/x")
        fs.unlink("/tmp/x")
        assert not fs.exists("/tmp/x")
        with pytest.raises(InvalidArgumentError):
            fs.open("/tmp/x")

    def test_duplicate_create_rejected(self, machine):
        machine.kernel.fs.create("/dup", 10)
        with pytest.raises(InvalidArgumentError):
            machine.kernel.fs.create("/dup", 10)

    def test_initial_contents_and_truncate(self, machine):
        f = machine.kernel.fs.create("/t", size=0)
        f.set_initial_contents(b"0123456789", offset=4090)  # crosses a page
        assert f.size == 4100
        assert f.initial_page(0)[4090:4096] == b"012345"
        assert f.initial_page(1)[:4] == b"6789"
        f.truncate(4096)
        assert f.initial_page(1) == bytes(4096)


class TestPageCache:
    def test_read_through_cache(self, machine, file_with_contents):
        cache = machine.kernel.page_cache
        data = cache.read(file_with_contents, 0, 11)
        assert data == b"file header"
        assert cache.fills >= 1

    def test_cache_fills_once_per_page(self, machine, file_with_contents):
        cache = machine.kernel.page_cache
        cache.read(file_with_contents, 0, 10)
        fills = cache.fills
        cache.read(file_with_contents, 100, 10)
        assert cache.fills == fills

    def test_write_through_cache(self, machine, file_with_contents):
        cache = machine.kernel.page_cache
        cache.write(file_with_contents, 50, b"patched")
        assert cache.read(file_with_contents, 50, 7) == b"patched"

    def test_drop_file_frees_unmapped_pages(self, machine, file_with_contents):
        cache = machine.kernel.page_cache
        cache.read(file_with_contents, 0, 1)
        assert len(cache) >= 1
        cache.drop_file(file_with_contents)
        assert len(cache) == 0


class TestSharedFileMappings:
    def test_mmap_shared_reads_file(self, proc, machine, file_with_contents):
        addr = proc.mmap_shared(256 * 1024, file=file_with_contents)
        assert proc.read(addr, 11) == b"file header"
        assert proc.read(addr + 100 * 1024, 14) == b"middle of file"

    def test_shared_write_visible_through_cache(self, proc, machine,
                                                file_with_contents):
        addr = proc.mmap_shared(256 * 1024, file=file_with_contents)
        proc.write(addr + 4096, b"mapped write")
        cached = machine.kernel.page_cache.read(file_with_contents, 4096, 12)
        assert cached == b"mapped write"

    def test_shared_mapping_across_fork(self, proc, file_with_contents):
        addr = proc.mmap_shared(256 * 1024, file=file_with_contents)
        child = proc.fork()
        child.write(addr, b"child was here")
        assert proc.read(addr, 14) == b"child was here"

    def test_shared_mapping_across_odfork(self, proc, machine,
                                          file_with_contents):
        addr = proc.mmap_shared(256 * 1024, file=file_with_contents)
        proc.read(addr, 1)  # populate
        child = proc.odfork()
        # First write faults (PMD protected) but copies only the *table*;
        # the data page is shared, so the parent sees the write.
        child.write(addr, b"still shared")
        assert proc.read(addr, 12) == b"still shared"

    def test_file_offset_mapping(self, proc, file_with_contents):
        addr = proc.mmap_shared(4096, file=file_with_contents,
                                offset=100 * 1024 - (100 * 1024) % 4096)
        page_offset = (100 * 1024) % 4096
        assert proc.read(addr + page_offset, 14) == b"middle of file"

    def test_access_beyond_eof_raises_sigbus(self, proc, machine):
        small = machine.kernel.fs.create("/small", size=4096)
        addr = proc.mmap_shared(64 * 1024, file=small)
        proc.read(addr, 10)  # within the file: fine
        with pytest.raises(BusError):
            proc.read(addr + 8192, 1)


class TestPrivateFileMappings:
    def test_private_cow_from_file(self, proc, machine, file_with_contents):
        addr = proc.mmap(256 * 1024, flags=MAP_PRIVATE,
                         file=file_with_contents)
        assert proc.read(addr, 11) == b"file header"
        proc.write(addr, b"PRIVATE CHG")
        assert proc.read(addr, 11) == b"PRIVATE CHG"
        # The file itself is untouched.
        cached = machine.kernel.page_cache.read(file_with_contents, 0, 11)
        assert cached == b"file header"

    def test_private_file_cow_isolated_across_fork(self, proc,
                                                   file_with_contents):
        addr = proc.mmap(256 * 1024, flags=MAP_PRIVATE,
                         file=file_with_contents)
        proc.read(addr, 1)
        child = proc.fork()
        child.write(addr, b"child edit!")
        assert proc.read(addr, 11) == b"file header"

    def test_private_write_under_oom_keeps_the_source_page(self):
        # The only reclaimable frame is the clean, unmapped cache page the
        # write copies from: reclaim must not hand it back as the copy.
        machine = Machine(phys_mb=16)
        blob = machine.kernel.fs.create("/data/blob", size=2 * 4096)
        blob.set_initial_contents(b"file bytes")
        proc = machine.spawn_process("p")
        addr = proc.mmap(2 * 4096, flags=MAP_PRIVATE, file=blob)
        proc.read(addr + 4096, 1)
        machine.kernel.page_cache.read(blob, 0, 10)
        allocator = machine.kernel.allocator
        hog = allocator.alloc_bulk(allocator.free_frames)
        with pytest.raises(OutOfMemoryError):
            proc.write(addr + 100, b"x")
        allocator.free_bulk(hog)
        proc.write(addr + 100, b"x")
        assert proc.read(addr, 10) == b"file bytes"

    def test_executable_mapping_model(self, proc, machine):
        """The §3.7 motivation: program text is a read-only file mapping."""
        text = machine.kernel.fs.create("/bin/app", size=64 * 1024)
        text.set_initial_contents(b"\x7fELF machine code")
        addr = proc.mmap(64 * 1024, prot=PROT_READ, flags=MAP_PRIVATE,
                         file=text, name="text")
        child = proc.odfork()
        assert child.read(addr, 4) == b"\x7fELF"
        assert proc.read(addr, 4) == b"\x7fELF"


class TestFileSweeps:
    """``touch_range``/``populate`` fault file pages like byte accesses."""

    def _sweep_then_store(self, proc, machine, notify):
        blob = machine.kernel.fs.create("/data/precious", size=2 * 4096)
        addr = proc.mmap_shared(2 * 4096, file=blob)
        if notify:
            # Map the pages, then write-protect them: the sweep's write
            # goes through write-notify instead of the fill.
            proc.touch_range(addr, 2 * 4096, write=False)
            proc.mprotect(addr, 2 * 4096, PROT_READ)
            proc.mprotect(addr, 2 * 4096, RW)
        proc.touch_range(addr, 4096, write=True)
        proc.write(addr, b"precious")
        proc.munmap(addr, 2 * 4096)
        machine.kernel.page_cache.reclaim_clean(1 << 20)
        return machine.kernel.page_cache.read(blob, 0, 8)

    def test_sweep_fill_write_dirties_the_cache_page(self, proc, machine):
        assert self._sweep_then_store(proc, machine, notify=False) == \
            b"precious"

    def test_sweep_write_notify_dirties_the_cache_page(self, proc, machine):
        assert self._sweep_then_store(proc, machine, notify=True) == \
            b"precious"

    @pytest.mark.parametrize("how", ["touch_range", "populate"])
    def test_sweep_past_eof_raises_sigbus_and_maps_nothing(self, proc,
                                                           machine, how):
        small = machine.kernel.fs.create("/small", size=4096)
        addr = proc.mmap_shared(4 * 4096, file=small)
        cache = machine.kernel.page_cache
        with pytest.raises(BusError):
            if how == "touch_range":
                proc.touch_range(addr, 4 * 4096, write=False)
            else:
                proc.populate(addr, 4 * 4096)
        assert proc.rss_bytes == 0
        assert len(cache) == 0
        proc.touch_range(addr, 4096, write=False)   # inside EOF: fine
        assert proc.rss_bytes == 4096

    def test_map_populate_stops_at_eof(self, proc, machine):
        from repro import MAP_POPULATE
        small = machine.kernel.fs.create("/small", size=4096 + 10)
        addr = proc.mmap(8 * 4096, flags=MAP_SHARED | MAP_POPULATE,
                         file=small)
        assert proc.rss_bytes == 2 * 4096
        with pytest.raises(BusError):
            proc.read(addr + 2 * 4096, 1)
