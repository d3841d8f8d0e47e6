"""kernsan: static analysis and dynamic sanitizers for the simulated kernel.

Two halves, mirroring how Linux enforces its own discipline:

* **Static checker** (``python -m repro.sancheck``) — sparse/Coccinelle
  in miniature.  Per-function CFGs + a worklist dataflow engine + a
  layer-filtered call graph (``cfg``/``engine``/``summaries``) drive
  six rule families over ``src/repro``: lock-context
  (``@must_hold``/``@acquires``/``@releases`` verified along the call
  graph), failpoint coverage (every raw allocation sits next to a
  ``failpoints.hit``), refcount pairing (no reference pin survives an
  exception exit), TLB discipline (every PTE/PMD clear or downgrade
  reaches a flush on all paths), clock-charge discipline (every
  frame/PTE mutation charges the virtual clock on all normal paths),
  and metrics-conservation (paired counters balance across exception
  edges; metric/failpoint names resolve against their registries).

* **Dynamic sanitizers** (``Machine(sanitize=...)``) — KASAN-style frame
  poisoning + quarantine in the buddy allocator and a KCSAN-style data
  race sampler for SMP interleavings.

See MECHANISM.md §12 for the annotation vocabulary and rule semantics.
"""

from .annotations import (
    acquires,
    charge_deferred,
    counters_deferred,
    must_hold,
    releases,
    releases_refs,
    tlb_deferred,
)

__all__ = [
    "acquires",
    "charge_deferred",
    "counters_deferred",
    "must_hold",
    "releases",
    "releases_refs",
    "tlb_deferred",
    "Violation",
    "check_paths",
    "check_repo",
]


def __getattr__(name):
    # The checker machinery is imported lazily so that kernel modules
    # importing the (inert) annotation decorators do not pay for the AST
    # tooling at runtime.
    if name in ("Violation", "check_paths", "check_repo"):
        from . import checker
        return getattr(checker, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
