"""Call graph + per-function summaries (the interprocedural layer).

The call graph keys functions by identity (``module:qualname``) and
resolves call sites by last name segment *filtered by layer*: core
kernel layers (``repro.kernel``/``smp``/``paging``/``mem``/``numa``/
``timing``/``trace``, plus non-``repro`` fixture files) never resolve
to fleet-layer candidates (``repro.cluster``/``apps``/``core``/...), so
an application-side method that happens to share a kernel callee's name
(``acquire``, ``transfer``, ``reserve``) cannot poison the kernel's
summaries — the PR 6 collision the old name-only fixpoint papered over
with a blanket scope test.

Summaries computed to a fixpoint over the graph:

* ``fallible_keys``   — may raise OOM (raw allocator/swap calls,
  failpoint sites, explicit OOM raises, or a fallible callee).
* ``flushing_keys``   — may reach a TLB flush.
* ``must_charge_keys`` — charge the virtual clock on **every** normal
  path (computed by iterating the boolean must-lattice per function
  over the call graph; see :class:`~.events.MustChargeDomain`).
"""

from __future__ import annotations

from collections import defaultdict

from .cfg import EXIT_FALL, EXIT_RETURN, build_cfg
from .engine import run_lattice
from .events import FLUSH_CALLS, MustChargeDomain

#: Core-kernel module prefixes (layer 0).  Everything else under
#: ``repro.`` is the fleet/application layer (layer 1); files outside
#: the ``repro`` package (test fixtures) analyse as layer 0.
KERNELISH_PREFIXES = (
    "repro.kernel", "repro.smp", "repro.paging", "repro.mem",
    "repro.numa", "repro.timing", "repro.trace", "repro.errors",
)

#: Modules whose obligation the clock-charge rule enforces.
CHARGE_SCOPE_PREFIXES = ("repro.kernel", "repro.paging")

def layer(module):
    """0 for core-kernel (and fixture) modules, 1 for the fleet layer."""
    if not module.startswith("repro.") and module != "repro":
        return 0
    if any(module == p or module.startswith(p + ".")
           for p in KERNELISH_PREFIXES):
        return 0
    return 1


def strict_kernel_scope(func):
    """The scope the failpoint/refcount/TLB rules report on."""
    module = func.module
    return (module.startswith("repro.kernel")
            or module.startswith("repro.smp")
            or not module.startswith("repro"))


def charge_scope(func):
    module = func.module
    return (any(module.startswith(p) for p in CHARGE_SCOPE_PREFIXES)
            or not module.startswith("repro"))


#: The reclaim-on-pressure allocation wrappers: they *are* the fallible
#: primitives the failpoint rule guards, so they are exempt from needing
#: a failpoint themselves (their callers carry the sites).
ALLOC_WRAPPERS = frozenset({
    "alloc_data_frame", "alloc_data_frames_bulk", "alloc_huge_frame",
    "alloc_table_frames", "alloc_table",
    "alloc_tables",
    # The NUMA-aware inner halves of the wrappers above: their callers
    # carry the ``numa.node_alloc`` (or upstream) failpoint sites.
    "_alloc_one", "_alloc_bulk",
})


def raw_alloc_calls(func):
    """Call sites in ``func`` that allocate frames or swap slots."""
    sites = []
    for call in func.calls:
        if call.name in ALLOC_WRAPPERS:
            sites.append(call)
        elif call.name in ("alloc", "alloc_bulk") and (
                "allocator" in call.receiver):
            sites.append(call)
        elif call.name == "alloc_slot" and "swap" in call.receiver:
            sites.append(call)
    return sites


def has_failpoint(func):
    return any(call.name in ("hit", "fails") and "failpoints" in call.receiver
               for call in func.calls)


def _raises_oom(func):
    return ("raise OutOfMemoryError" in func.source
            or "raise OutOfFramesError" in func.source)


class CallGraph:
    """Name-resolved, layer-filtered call edges over harvested files."""

    def __init__(self, files):
        self.functions = {}
        self.by_name = defaultdict(list)
        for sf in files:
            for func in sf.functions:
                self.functions[func.key] = func
                self.by_name[func.name].append(func)
        self._callees = {}

    def resolve(self, caller, name):
        """Candidate callees for ``name`` called from ``caller``.

        Layer-0 callers resolve only to layer-0 candidates (the kernel
        never calls up into the fleet); layer-1 callers resolve to
        everything (the fleet calls down freely).
        """
        candidates = self.by_name.get(name)
        if not candidates:
            return []
        if layer(caller.module) == 0:
            return [c for c in candidates if layer(c.module) == 0]
        return list(candidates)

    def callees(self, func):
        """Resolved callee FunctionInfos of ``func`` (cached)."""
        cached = self._callees.get(func.key)
        if cached is None:
            cached = []
            seen = set()
            for call in func.calls:
                for cand in self.resolve(func, call.name):
                    if cand.key not in seen:
                        seen.add(cand.key)
                        cached.append(cand)
            self._callees[func.key] = cached
        return cached


def _fixpoint(graph, funcs, seeded, absorb_scope):
    """Propagate a seeded key set along resolved call edges to fixpoint.

    ``absorb_scope(func)`` limits both who can join the set and whose
    membership is visible to callers.
    """
    result = set(seeded)
    changed = True
    while changed:
        changed = False
        for func in funcs:
            if func.key in result or not absorb_scope(func):
                continue
            for callee in graph.callees(func):
                if callee.key in result and absorb_scope(callee):
                    result.add(func.key)
                    changed = True
                    break
    return result


class Summaries:
    """The interprocedural facts every rule consumes."""

    def __init__(self, files):
        self.files = files
        self.graph = CallGraph(files)
        funcs = list(self.graph.functions.values())
        self._cfgs = {}

        self.fallible_keys = frozenset(_fixpoint(
            self.graph, funcs,
            {f.key for f in funcs if strict_kernel_scope(f)
             and (raw_alloc_calls(f) or has_failpoint(f) or _raises_oom(f))},
            strict_kernel_scope))

        self.flushing_keys = frozenset(_fixpoint(
            self.graph, funcs,
            {f.key for f in funcs
             if any(c.name in FLUSH_CALLS for c in f.calls)},
            lambda f: True))

        self.must_charge_keys = self._compute_must_charge(funcs)

    # -- CFG cache -------------------------------------------------------

    def cfg(self, func):
        got = self._cfgs.get(func.key)
        if got is None:
            got = build_cfg(func.node)
            self._cfgs[func.key] = got
        return got

    # -- must-charge fixpoint --------------------------------------------

    def _compute_must_charge(self, funcs):
        candidates = [f for f in funcs if charge_scope(f)
                      and "charge" in f.source]
        keys = set()
        while True:
            names = self._flatten_must_charge(keys, candidates)
            domain = MustChargeDomain(names)
            new = set()
            for func in candidates:
                exit_values = run_lattice(self.cfg(func), domain)
                normals = [exit_values[k] for k in (EXIT_FALL, EXIT_RETURN)
                           if k in exit_values]
                if normals and all(normals):
                    new.add(func.key)
            if new == keys:
                return frozenset(keys)
            keys = new

    def _flatten_must_charge(self, keys, candidates):
        by_name = defaultdict(list)
        for func in candidates:
            by_name[func.name].append(func)
        return frozenset(
            name for name, cands in by_name.items()
            if cands and all(f.key in keys for f in cands))

    def must_charge_names(self):
        candidates = [f for f in self.graph.functions.values()
                      if charge_scope(f) and "charge" in f.source]
        return self._flatten_must_charge(self.must_charge_keys, candidates)


def build_summaries(files):
    return Summaries(files)
