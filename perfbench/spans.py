"""Outside-in host-time spans around each layer's public entry points.

The traced run wraps entry points where their callers look them up:
methods on their class, module functions at every ``repro.*`` module
binding that holds them (``repro.kernel.kernel.fast_copy_mm_classic``,
the ``from .rmap import`` names in ``bulkops``/``fastpath``/``thp``, ...).
Nothing under ``src/`` changes, and ``repro.trace`` is never attached:
``fast_path_ok`` bails while a tracer is attached, so attaching one would
measure a different program.

Each call appends one record to compact in-memory arrays: the entry
point, host start and end (``time.perf_counter``), the enclosing span
(-1 at the top) and an item count where the call carries one.  Records
are summarised, and optionally written out, only after the run.  A
layer's self time is its spans' durations minus the part covered by
child spans; the wrapper's own bookkeeping for a child lands in its
parent's self time.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from array import array

import numpy as np


def _len_arg(index):
    return lambda args, kwargs, result: len(args[index])


def _one(args, kwargs, result):
    return 1


def _returned(args, kwargs, result):
    return int(result or 0)


def _buddy_order(args, kwargs, result):
    order = args[1] if len(args) > 1 else kwargs.get("order", 0)
    return 1 << (order or 0)


def _buddy_free(args, kwargs, result):
    # Every caller in the kernel passes the order explicitly.
    order = args[2] if len(args) > 2 else kwargs.get("order", 0)
    return 1 << (order or 0)


#: ``(layer, module, owner, attribute, items)``: ``owner`` is a class
#: name for methods and None for module functions; ``items`` maps
#: ``(args, kwargs, result)`` to the call's item count (None: no items).
ENTRY_POINTS = (
    ("core.process", "repro.core.process", "Process", "fork", None),
    ("core.process", "repro.core.process", "Process", "odfork", None),
    ("core.process", "repro.core.process", "Process", "exit", None),
    ("core.process", "repro.core.process", "Process", "wait", None),
    ("core.process", "repro.core.process", "Process", "write", None),
    ("core.process", "repro.core.process", "Process", "read", None),
    ("core.process", "repro.core.process", "Process", "touch_range", None),
    # items = 1 when the analytic path engaged (returned True).
    ("kernel.fastpath", "repro.kernel.fastpath", None,
     "fast_copy_mm_classic", _returned),
    ("kernel.fastpath", "repro.kernel.fastpath", None,
     "fast_exit_release_pmd_table", _returned),
    ("kernel.fork", "repro.kernel.fork", None, "copy_mm_classic", None),
    ("kernel.odfork", "repro.kernel.odfork", None, "copy_mm_odf", None),
    ("kernel.teardown", "repro.kernel.teardown", None, "exit_mmap", None),
    ("kernel.fault", "repro.kernel.fault", "FaultHandler", "handle", None),
    ("kernel.tableops", "repro.kernel.tableops", None,
     "copy_shared_pte_table", None),
    ("kernel.bulkops", "repro.kernel.bulkops", None, "access_range", None),
    ("kernel.bulkops", "repro.kernel.bulkops", None, "populate_range", None),
    ("kernel.rmap", "repro.kernel.rmap", None, "rmap_add_bulk", _len_arg(1)),
    ("kernel.rmap", "repro.kernel.rmap", None, "rmap_remove_bulk",
     _len_arg(1)),
    ("kernel.rmap", "repro.kernel.rmap", None, "try_to_unmap", _one),
    ("kernel.rmap", "repro.kernel.rmap", "AnonRmap", "tables_for", _one),
    # items = pages reclaimed by shrink (balance's total is made of
    # nested shrinks, so it carries none to avoid counting them twice).
    ("kernel.reclaim", "repro.kernel.reclaim", "ReclaimState", "shrink",
     _returned),
    ("kernel.reclaim", "repro.kernel.reclaim", "ReclaimState", "balance",
     None),
    ("mem.swap", "repro.mem.swap", "SwapDevice", "write", _one),
    ("mem.swap", "repro.mem.swap", "SwapDevice", "read", _one),
    ("kernel.snapshot", "repro.kernel.snapshot", "Snapshot", "restore", None),
    ("mem.buddy", "repro.mem.buddy", "BuddyAllocator", "alloc", _buddy_order),
    ("mem.buddy", "repro.mem.buddy", "BuddyAllocator", "free", _buddy_free),
    ("mem.buddy", "repro.mem.buddy", "BuddyAllocator", "alloc_bulk",
     lambda args, kwargs, result: int(args[1])),
    ("mem.buddy", "repro.mem.buddy", "BuddyAllocator", "free_bulk",
     _len_arg(1)),
    ("paging.walk", "repro.paging.walk", "Walker", "translate", None),
    ("faas", "repro.faas.image", "Template", "invoke_cold", None),
    ("faas", "repro.faas.image", "Template", "invoke_warm", None),
    ("faas", "repro.faas.image", "Template", "reset", None),
    ("faas", "repro.faas.image", "Template", "reap_due", None),
    ("faas", "repro.faas.image", "ImageRegistry", "register", None),
    ("cluster", "repro.cluster.gateway", "Gateway", "route", None),
    ("cluster", "repro.cluster.gateway", "Gateway", "admit", None),
    ("cluster", "repro.cluster.gateway", "Gateway", "inbound", None),
    ("cluster", "repro.cluster.gateway", "Gateway", "outbound", None),
    ("cluster", "repro.cluster.replica", "Replica", "serve", None),
    ("cluster", "repro.cluster.replica", "Replica", "snapshot", None),
    ("cluster", "repro.cluster.dlm", "Dlm", "acquire", None),
    ("cluster", "repro.cluster.dlm", "Dlm", "release", None),
    ("cluster", "repro.cluster.coordinator", "SnapshotCoordinator", "pump",
     None),
    ("apps.kvstore", "repro.apps.kvstore", "KVStore", "handle_get", None),
    ("apps.kvstore", "repro.apps.kvstore", "KVStore", "handle_set", None),
)

LAYERS = tuple(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))

#: What each layer's item count means (layers not listed count none).
ITEM_NAMES = {
    "kernel.fastpath": "engaged",
    "kernel.rmap": "pfns",
    "kernel.reclaim": "pages",
    "mem.swap": "pages",
    "mem.buddy": "frames",
}


def entry_name(entry):
    """``layer:owner.attribute`` label of one entry point."""
    layer, _module, owner, attr, _items = entry
    return f"{layer}:{owner + '.' if owner else ''}{attr}"


def import_all():
    """Import every ``repro`` module before wrapping.

    A module first imported while the wrappers are installed would bind
    a wrapper and keep it after they are removed.
    """
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def leftover_wrappers():
    """Names that still hold a span wrapper (empty after a clean exit)."""
    found = []
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if getattr(value, "perfbench_span", False):
                found.append(f"{name}.{attr} is still wrapped")
            elif isinstance(value, type):
                for meth, member in vars(value).items():
                    if getattr(member, "perfbench_span", False):
                        found.append(f"{name}.{attr}.{meth} is still wrapped")
    return found


class SpanRecorder:
    """Installs the wrappers, records spans in memory, restores on exit."""

    def __init__(self):
        self.fn = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.items = array("q")
        self._stack = [-1]
        self._undo = []

    # ---- install / restore ----------------------------------------------

    def __enter__(self):
        import_all()
        for fn_id, entry in enumerate(ENTRY_POINTS):
            _layer, module_name, owner, attr, items = entry
            module = importlib.import_module(module_name)
            if owner is None:
                original = getattr(module, attr)
                wrapper = self._wrap(fn_id, original, items)
                for name, mod in list(sys.modules.items()):
                    if not name.startswith("repro"):
                        continue
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, binding, original))
                            setattr(mod, binding, wrapper)
            else:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(fn_id, original, items))
        return self

    def __exit__(self, *exc):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)
        return False

    def _wrap(self, fn_id, func, items):
        fn, start, end = self.fn, self.start, self.end
        parent, counts, stack = self.parent, self.items, self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(start)
            fn.append(fn_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            counts.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if items is not None:
                counts[idx] = items(args, kwargs, result)
            return result

        span.__wrapped__ = func
        span.__name__ = getattr(func, "__name__", "span")
        span.perfbench_span = True
        return span

    # ---- summaries ---------------------------------------------------------

    def arrays(self):
        """The records as numpy arrays (one row per call)."""
        return {
            "fn": np.frombuffer(self.fn, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "items": np.frombuffer(self.items, dtype=np.int64).copy(),
        }

    def summary(self, first=0, last=None):
        """Per-layer ``{"calls", "items", "self_s"}`` over records
        ``first:last``, and ``{"calls", "items"}`` per entry point
        (``layer:owner.name``).

        The slice must hold whole span trees (a phase between two marks
        taken with no span open), so every parent lies inside it.
        """
        rec = self.arrays()
        window = slice(first, last)
        fn = rec["fn"][window].astype(np.int64)
        dur = rec["end"][window] - rec["start"][window]
        parent = rec["parent"][window].astype(np.int64) - first
        items = rec["items"][window]
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_s = dur - child
        n_fn = len(ENTRY_POINTS)
        calls_fn = np.bincount(fn, minlength=n_fn)
        items_fn = np.bincount(fn, weights=items, minlength=n_fn)
        self_fn = np.bincount(fn, weights=self_s, minlength=n_fn)
        layers = {name: {"calls": 0, "items": 0, "self_s": 0.0}
                  for name in LAYERS}
        per_entry = {}
        for fn_id, entry in enumerate(ENTRY_POINTS):
            row = layers[entry[0]]
            row["calls"] += int(calls_fn[fn_id])
            row["items"] += int(items_fn[fn_id])
            row["self_s"] += float(self_fn[fn_id])
            per_entry[entry_name(entry)] = {"calls": int(calls_fn[fn_id]),
                                            "items": int(items_fn[fn_id])}
        return layers, per_entry

    def __len__(self):
        return len(self.start)

    def write(self, path):
        """Write every record (plus the entry-point table) as ``.npz``."""
        names = np.array([entry_name(e) for e in ENTRY_POINTS])
        np.savez_compressed(path, entry_points=names, **self.arrays())
